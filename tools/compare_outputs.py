"""Run every benchmark config in a base tree and in this tree, and diff the outputs byte for byte.

Usage:
  python tools/compare_outputs.py --base DIR

DIR is a checkout of the commit to compare against (``git archive`` or
``git clone``). Every config of every workload in ``perfbench/workloads.py``
is run at seeds 0 and 1 through ``enflolab.cli.main``, once with DIR's
``src/`` and once with this tree's, each tree in its own interpreter. Each
config's ``report.csv``, ``h_coeffs_*.json`` and ``run_manifest.json`` must
then match byte for byte, both trees must write the same such files, and
both must return the same exit code. The tool prints one line per workload
and seed and every difference it finds, and exits 1 if there is any. It
writes only to a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
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


def run_tree(tree: Path, jobs: list[list[str]], job_file: Path) -> list[int]:
    """Run every [config path, out dir] job with the tree's enflolab; return the exit codes."""
    job_file.write_text(json.dumps(jobs))
    argv = [sys.executable, "-c", _RUNNER, str(tree / "src"), str(job_file)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"runner failed in {tree}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def compared_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for pattern in COMPARED for p in sorted(out.glob(pattern))}


def differences(base_out: Path, out: Path) -> list[str]:
    """Names of the compared files that differ, or that only one side wrote."""
    a, b = compared_files(base_out), compared_files(out)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    args = parser.parse_args(argv)
    base = args.base.resolve()
    if not (base / "src" / "enflolab" / "cli.py").is_file():
        parser.error(f"{base} holds no src/enflolab/cli.py")

    failed = False
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
            for side, tree in (("base", base), ("this", ROOT)):
                outs[side] = [scratch / side / tag / str(i) for i in range(len(paths))]
                jobs = [[p, str(o)] for p, o in zip(paths, outs[side])]
                codes[side] = run_tree(tree, jobs, scratch / f"{side}-{tag}.jobs.json")
            found, files = [], 0
            for i, (a, b) in enumerate(zip(outs["base"], outs["this"])):
                if codes["base"][i] != codes["this"][i]:
                    found.append(f"config {i}: exit {codes['base'][i]} vs {codes['this'][i]}")
                found += [f"config {i}: {name} differs" for name in differences(a, b)]
                files += len(compared_files(b))
            status = "identical" if not found else f"{len(found)} differences"
            print(f"{workload} seed {seed}: {len(paths)} configs, {files} files, {status}")
            for line in found:
                print(f"  {line}")
            failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
