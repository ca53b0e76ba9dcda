"""Benchmark entry: run one workload through the enflolab CLI and print its metrics.

Usage:
  python3 perfbench/run.py --workload {sweep,search,identity}
                           [--seed N] [--seconds S] [--trace 0|1]

Load model: a closed loop with one client. Each pass runs the workload's
configs back to back through ``enflolab.cli.main`` in a fresh interpreter
(perfbench/worker.py), and the next pass starts when the previous one has
ended. Passes repeat until ``--seconds`` is used up (at least one runs).

--trace 0 reports the end-to-end metrics: ``wall_s`` (median pass time at
--threads 1, with the host's varying speed taken out by a probe timed between
configs; the detail line gives the unscaled pass times as ``pass_s``),
``setup_s`` (median time for a fresh interpreter to import
enflolab.cli and parse the configs) and ``peak_rss_mb`` (median peak resident
memory of a pass process). --trace 1 runs rounds of an untraced pass, a
traced pass and a --threads 2 pass, and reports the per-layer metrics.

Every pass's outputs are checked; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}, where failed / attempted is
the failed fraction of output checks. The line before it holds the details:
sample counts and quartiles, the environment, and the first failures.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

# timed set-up spawns before each pass, so that set-up samples spread over the
# run like the passes do; one untimed spawn first warms the file cache
SETUP_PER_PASS = 2
# every run ends within this many seconds, whatever --seconds asks for
RUN_DEADLINE_S = 170.0
THREADS_PAIR = 2
# times are scaled to the host speed at which worker.Probe takes this long:
# its median on the 2-core Xeon (2.1 GHz) the workloads were sized on
PROBE_REF_S = 0.009


def environment() -> dict:
    """Machine and toolchain record printed with every result."""
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


@dataclass
class Pass:
    wall_s: float
    config_walls: list[float]
    probes: list[float]
    peak_rss_mb: float
    files: list[dict[str, bytes] | None]
    spans: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)


class Bench:
    """One benchmark run: the workload's configs, its work directory and its checks."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.configs = workloads.configs(workload, seed)
        self.config_paths = []
        for i, cfg in enumerate(self.configs):
            path = work / f"config_{i}.json"
            path.write_text(json.dumps(cfg))
            self.config_paths.append(str(path))
        self.references = [None] * len(self.configs)
        if workload == "sweep" and seed == workloads.REFERENCE_SEED:
            try:
                reference = workloads.load_reference()
            except OSError:
                reference = [[]]  # every row then fails the reference check
            self.references = workloads.reference_slices(self.configs, reference)
        self.checks = workloads.CheckResult()
        self.problems: list[str] = []
        self.passes = 0

    def check(self, ok: bool, what: str) -> None:
        self.checks.add(ok, what, self.problems)

    def child(self, *args: str) -> dict | None:
        """Run the worker to completion; None if it failed or overran the deadline."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *args],
                capture_output=True,
                text=True,
                timeout=timeout,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"worker {args[0]} overran the run deadline")
            return None
        if proc.returncode != 0:
            self.problems.append(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-500:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_times(self, count: int) -> list[tuple[float, float]]:
        """(wall time, probe time) of `count` fresh interpreters that import
        the CLI and parse the configs; the probe's own cost is taken off."""
        times = []
        for _ in range(count):
            start = time.perf_counter()
            result = self.child("setup", "--configs", *self.config_paths)
            wall = time.perf_counter() - start
            self.check(result is not None, "setup: worker failed")
            if result is not None:
                times.append((wall - result["probe_cost_s"], result["probe"]))
        return times

    def run_pass(self, threads: int, trace: bool) -> Pass | None:
        self.passes += 1
        out = self.work / f"pass_{self.passes}"
        args = ["pass", "--configs", *self.config_paths, "--out", str(out)]
        args += ["--threads", str(threads)] + (["--trace"] if trace else [])
        result = self.child(*args)
        files = [_read_outputs(out / str(i)) for i in range(len(self.configs))]
        shutil.rmtree(out, ignore_errors=True)
        if result is None:
            for cfg in self.configs:
                self.checks.merge(workloads.check_config(cfg, -1, None, None, self.problems))
            return None
        for cfg, code, got, ref in zip(self.configs, result["codes"], files, self.references):
            self.checks.merge(workloads.check_config(cfg, code, got, ref, self.problems))
        return Pass(
            wall_s=sum(result["walls"]),
            config_walls=result["walls"],
            probes=result["probes"],
            peak_rss_mb=result["peak_rss_kb"] / 1024.0,
            files=files,
            spans=result.get("spans", {}),
            counts=result.get("counts", {}),
            missing=result.get("missing", []),
        )

    def same_outputs(self, a: Pass | None, b: Pass | None, what: str) -> None:
        """One check per config: the two passes wrote byte-identical outputs."""
        for i, cfg in enumerate(self.configs):
            ok = a is not None and b is not None and a.files[i] is not None
            ok = ok and a.files[i] == b.files[i]
            self.check(ok, f"{cfg['command']}: outputs differ ({what})")

    def out_of_time(self, begin: float, seconds: int, step: list[float]) -> bool:
        """True when another step of median length would overrun --seconds."""
        now = time.perf_counter()
        return now - begin + statistics.median(step) > seconds or now + max(step) > self.deadline


def _read_outputs(directory: Path) -> dict[str, bytes] | None:
    if not directory.is_dir():
        return None
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir()) if path.is_file()}


def _search_summary(bench: Bench, run: Pass | None) -> tuple[int, list[float]]:
    """Accepted ascent steps and the gaps 1 - found/exact over the known cells."""
    steps, gaps = 0, []
    if run is not None:
        for cfg, files in zip(bench.configs, run.files):
            cfg_steps, cfg_gaps = workloads.search_stats(cfg, files)
            steps += cfg_steps
            gaps.extend(cfg_gaps)
    return steps, gaps


def steady_pass_s(run: Pass) -> float:
    """Pass time with the host's varying speed taken out: each config's time
    scaled by PROBE_REF_S over the mean of the probes just before and after it."""
    return sum(
        wall * PROBE_REF_S / ((before + after) / 2)
        for wall, before, after in zip(run.config_walls, run.probes, run.probes[1:])
    )


def timed_run(bench: Bench, seconds: int) -> tuple[dict, dict]:
    """Untraced passes at --threads 1: the end-to-end metrics."""
    bench.child("setup", "--configs", *bench.config_paths)
    setup, runs, step = [], [], []
    first = None
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        setup.extend(bench.setup_times(SETUP_PER_PASS))
        run = bench.run_pass(threads=1, trace=False)
        step.append(time.perf_counter() - start)
        if run is not None:
            runs.append(run)
        if first is None:
            first = run
        else:
            bench.same_outputs(first, run, "repeated pass")
        if bench.out_of_time(begin, seconds, step):
            break
    # the speed of a shared host's core drifts by up to 2x within seconds; the
    # probe runs between configs and follows it, and every time is scaled to
    # the speed at which the probe takes PROBE_REF_S
    probes = [p for run in runs for p in run.probes] + [p for _, p in setup]
    walls = [steady_pass_s(run) for run in runs] or [0.0]
    setup_s = [wall * PROBE_REF_S / probe for wall, probe in setup] or [0.0]
    rss = [run.peak_rss_mb for run in runs] or [0.0]
    raw = [run.wall_s for run in runs] or [0.0]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    detail = {
        "wall_s": {"samples": len(walls), "quartiles": quartiles(walls), "values": walls},
        "pass_s": {"samples": len(raw), "quartiles": quartiles(raw), "values": raw},
        "setup_s": {"samples": len(setup_s), "values": setup_s, "unscaled": [w for w, _ in setup]},
        "peak_rss_mb": {"samples": len(rss), "values": rss},
        "probe_s": {
            "samples": len(probes),
            "reference": PROBE_REF_S,
            "quartiles": quartiles(probes) if probes else None,
        },
    }
    if bench.workload == "search":
        _, gaps = _search_summary(bench, first)
        detail["search_gap"] = {
            "value": statistics.fmean(gaps) if gaps else None,
            "unit": "frac",
            "cells": len(gaps),
        }
    return metrics, detail


# per-layer metric name -> unit; every traced run reports all of them
SPAN_METRICS = tuple(tracing.TARGETS)
PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in SPAN_METRICS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "kernels.window_sums.elements": "count",
    "kernels.window_sums.bytes": "B",
    "averaging.separable_speedup": "x",
    "identity.equations": "count",
    "search.self_s": "s",
    "search.accepted_steps": "count",
    "search.gap": "frac",
    "cli.output_bytes": "B",
    "cli.threads2_speedup": "x",
    "trace.overhead_s": "s",
}


def traced_run(bench: Bench, seconds: int) -> tuple[dict, dict]:
    """Rounds of untraced, traced and two-thread passes: the per-layer metrics."""
    plain, traced, paired, step = [], [], [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        a = bench.run_pass(threads=1, trace=False)
        b = bench.run_pass(threads=1, trace=True)
        c = bench.run_pass(threads=THREADS_PAIR, trace=False)
        step.append(time.perf_counter() - start)
        bench.same_outputs(a, b, "traced pass")
        bench.same_outputs(a, c, f"--threads {THREADS_PAIR}")
        if plain and plain[0] is not None:
            bench.same_outputs(plain[0], a, "repeated pass")
        plain.append(a)
        traced.append(b)
        paired.append(c)
        if bench.out_of_time(begin, seconds, step):
            break

    separable = bench.child("separable", "--seed", str(bench.seed))
    bench.check(
        separable is not None and separable["max_abs_diff"] < 1e-12,
        "separable box average differs from the naive stencil by 1e-12 or more",
    )

    ok_traced = [run for run in traced if run is not None]
    for name in tracing.REQUIRED[bench.workload]:
        fired = bool(ok_traced) and all(
            name not in run.missing and run.spans.get(name, {}).get("calls", 0) > 0
            for run in ok_traced
        )
        bench.check(fired, f"span {name} never fired on {bench.workload}")

    def median_of(values):
        return statistics.median(values) if values else 0.0

    def span(name: str, key: str) -> float:
        return median_of([run.spans.get(name, {}).get(key, 0) for run in ok_traced])

    values = {}
    for name in SPAN_METRICS:
        values[f"{name}.calls"] = int(span(name, "calls"))
        values[f"{name}.self_s"] = span(name, "self_s")
    for key in ("kernels.window_sums.elements", "kernels.window_sums.bytes"):
        values[key] = int(median_of([run.counts.get(key, 0) for run in ok_traced]))
    values["averaging.separable_speedup"] = separable["speedup"] if separable else 0.0

    first = next((run for run in plain if run is not None), None)
    first_files = first.files if first else [None] * len(bench.configs)
    steps, gaps = _search_summary(bench, first)
    values["identity.equations"] = sum(
        workloads.identity_equations(cfg, files) for cfg, files in zip(bench.configs, first_files)
    )
    values["search.self_s"] = span("cli.estimate-constants", "self_s") + span("cli.scan", "self_s")
    values["search.accepted_steps"] = steps
    values["search.gap"] = statistics.fmean(gaps) if gaps else 0.0
    values["cli.output_bytes"] = sum(
        len(data) for files in first_files if files for data in files.values()
    )
    plain_walls = [run.wall_s for run in plain if run is not None]
    paired_walls = [run.wall_s for run in paired if run is not None]
    values["cli.threads2_speedup"] = (
        median_of(plain_walls) / median_of(paired_walls) if plain_walls and paired_walls else 0.0
    )
    values["trace.overhead_s"] = median_of(
        [b.wall_s - a.wall_s for a, b in zip(plain, traced) if a is not None and b is not None]
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    detail = {
        "rounds": len(step),
        "computed_not_measured": ["kernels.window_sums.elements", "kernels.window_sums.bytes"],
        "cli_spans": {
            name: entry for name, entry in (ok_traced[0].spans.items() if ok_traced else ())
            if name.startswith("cli.")
        },
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "enflolab" / "cli.py").is_file():
        print(f"error: no enflolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run still stops its worker (subprocess.run kills it on any
    # exception) and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        bench = Bench(args.workload, args.seed, work)
        run = traced_run if args.trace else timed_run
        metrics, detail = run(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every pass adds checks, so attempted is at least one
    checks = bench.checks
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        fail_frac={"value": checks.failed / checks.attempted, "unit": "frac"},
        problems=bench.problems,
        environment=environment(),
    )
    correct = checks.failed == 0
    print(json.dumps({"detail": detail}))
    result = {"correct": correct, "attempted": checks.attempted, "failed": checks.failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
