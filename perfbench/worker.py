"""One measurement in a fresh interpreter; prints one JSON object as its last line.

Modes:
  setup      import enflolab.cli and parse the given configs, then exit
  pass       run each config through enflolab.cli.main, timing each call
  separable  naive stencil against separable passes at n=3, m=16, k=7, d=4

The parent (run.py) starts this script once per measurement so that each
pass pays the import and cold lru caches a user's CLI run pays.

``setup`` and ``pass`` also time a fixed probe (``Probe``): after the set-up,
and before the first config and after each config of a pass. The parent
uses the probe times to take out the host's varying speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# medians over this many interleaved timings of each averaging path
SEPARABLE_REPEATS = 15
# probes after the set-up; the set-up reports their median
SETUP_PROBES = 3


class Probe:
    """A fixed mix of the work enflolab does, about 8 ms on a 2.1 GHz Xeon:
    rolls of a small table (per-call overhead), an interpreter loop, and a
    shift-difference on a table of the largest sweep size. On a shared host
    its time follows the speed the workload gets at that moment."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((8, 8, 8, 8))
        self.large = rng.standard_normal((16, 16, 16, 16, 3))

    def __call__(self) -> float:
        import numpy as np

        start = time.perf_counter()
        for _ in range(150):
            np.roll(self.small, 1, axis=2).sum()
        x = 0
        for i in range(40000):
            x += i * i
        np.abs(np.roll(self.large, 1, axis=1) - self.large).sum()
        return time.perf_counter() - start


def _setup(configs: list[str]) -> dict:
    from enflolab.cli import parse_config

    for path in configs:
        parse_config(json.loads(Path(path).read_text()))
    start = time.perf_counter()
    probe = Probe()
    probes = [probe() for _ in range(SETUP_PROBES)]
    return {"probe": statistics.median(probes), "probe_cost_s": time.perf_counter() - start}


def _pass(configs: list[str], out: str, threads: int, trace: bool) -> dict:
    from enflolab import cli

    tracer = None
    missing: list[str] = []
    if trace:
        import tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    probe = Probe()
    walls, codes, probes = [], [], [probe()]
    for i, path in enumerate(configs):
        command = json.loads(Path(path).read_text())["command"]
        argv = ["--config", path, "--out", str(Path(out) / str(i)), "--threads", str(threads)]
        record = tracer.open(f"cli.{command}") if tracer else None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed config, reported like a nonzero exit
            traceback.print_exc()
            code = -1
        walls.append(time.perf_counter() - start)
        if record is not None:
            tracer.close(record)
        codes.append(code)
        probes.append(probe())
    result = {
        "walls": walls,
        "probes": probes,
        "codes": codes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
        result["missing"] = missing
    return result


def _separable(seed: int) -> dict:
    import numpy as np

    from enflolab.averaging import build_even_box, convolve, convolve_box_separable
    from enflolab.torus import FunctionTable, TorusGeometry

    n, m, k, d = 3, 16, 7, 4
    geometry = TorusGeometry(n, m)
    f = FunctionTable.random_gaussian(geometry, d, np.random.default_rng(seed))
    support = build_even_box(geometry, range(n), k)
    support.index_table  # build the gather table outside the timed region
    naive = convolve(f, support)
    fast = convolve_box_separable(f, range(n), k)
    naive_t, fast_t = [], []
    for _ in range(SEPARABLE_REPEATS):
        start = time.perf_counter()
        convolve(f, support)
        naive_t.append(time.perf_counter() - start)
        start = time.perf_counter()
        convolve_box_separable(f, range(n), k)
        fast_t.append(time.perf_counter() - start)
    return {
        "speedup": statistics.median(naive_t) / statistics.median(fast_t),
        "max_abs_diff": float(np.abs(naive.values - fast.values).max()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "separable"))
    parser.add_argument("--configs", nargs="*", default=[])
    parser.add_argument("--out", default=".")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        result = _setup(args.configs)
    elif args.mode == "pass":
        result = _pass(args.configs, args.out, args.threads, args.trace)
    else:
        result = _separable(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
