"""Outside-in tracing: wrap each layer's public functions and keep spans in memory.

Nothing under ``src/`` knows about tracing. ``install`` replaces every
binding of a traced function in every loaded ``enflolab`` module (a name
imported with ``from .x import f`` is a second binding of the same object),
and patches methods on their class. Spans are recorded in a list and reduced
to per-name call counts, total time and self time (duration minus the time
covered by child spans) when the pass ends. The stack is per thread, so self
times are exact only for a single-threaded pass, which is how traced passes run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter

# span name -> (module, attribute path); the span names are the per-layer
# metric prefixes, grouped by the ROADMAP layers L0 to L4
TARGETS = {
    "kernels.window_sums": ("enflolab.kernels", "window_sums"),
    "kernels.gather_mean": ("enflolab.kernels", "gather_mean"),
    "averaging.box_average": ("enflolab.averaging", "box_average"),
    "averaging.convolve_box_separable": ("enflolab.averaging", "convolve_box_separable"),
    "averaging.convolve_shell_separable": ("enflolab.averaging", "convolve_shell_separable"),
    "averaging.convolve": ("enflolab.averaging", "convolve"),
    "averaging.box_average_array": ("enflolab.averaging", "box_average_array"),
    "torus.lengths": ("enflolab.torus", "NormSpec.lengths"),
    "torus.table_new": ("enflolab.torus", "FunctionTable.__init__"),
    "inequalities.scaled_enflo_ratio": ("enflolab.inequalities", "scaled_enflo_ratio"),
    "inequalities.approximation_ratio": ("enflolab.inequalities", "approximation_ratio"),
    "inequalities.smoothing_ratio": ("enflolab.inequalities", "smoothing_ratio"),
    "inequalities.scheme_composite_check": ("enflolab.inequalities", "scheme_composite_check"),
    "inequalities.enflo_ratio": ("enflolab.inequalities", "enflo_ratio"),
    "inequalities.pisier_ratio": ("enflolab.inequalities", "pisier_ratio"),
    "inequalities.edge_energy": ("enflolab.inequalities", "edge_energy"),
    "identity.fit_identity_coefficients": ("enflolab.identity", "fit_identity_coefficients"),
    "identity.verify_identity": ("enflolab.identity", "verify_identity"),
    "search.scan_grid": ("enflolab.search", "scan_grid"),
}

# spans each workload must fire; one that stays silent means a rebinding
# escaped the patcher and its layer would read as zero
REQUIRED = {
    "sweep": (
        "kernels.window_sums",
        "kernels.gather_mean",
        "averaging.box_average",
        "averaging.convolve_box_separable",
        "averaging.convolve",
        "torus.lengths",
        "torus.table_new",
        "inequalities.scaled_enflo_ratio",
        "inequalities.approximation_ratio",
        "inequalities.smoothing_ratio",
        "inequalities.scheme_composite_check",
        "inequalities.edge_energy",
    ),
    "search": (
        "kernels.window_sums",
        "averaging.box_average",
        "averaging.convolve_box_separable",
        "averaging.box_average_array",
        "torus.lengths",
        "torus.table_new",
        "inequalities.scaled_enflo_ratio",
        "inequalities.approximation_ratio",
        "inequalities.smoothing_ratio",
        "inequalities.enflo_ratio",
        "inequalities.pisier_ratio",
        "inequalities.edge_energy",
        "search.scan_grid",
    ),
    "identity": (
        "kernels.window_sums",
        "kernels.gather_mean",
        "averaging.box_average",
        "averaging.convolve_box_separable",
        "averaging.convolve_shell_separable",
        "averaging.convolve",
        "torus.table_new",
        "identity.fit_identity_coefficients",
        "identity.verify_identity",
    ),
}


def _window_work(counts: Counter, args) -> None:
    # computed from the argument shape, not measured: rows x length float64
    # elements read, and as many written
    rows, length = args[0].shape
    counts["kernels.window_sums.elements"] += rows * length
    counts["kernels.window_sums.bytes"] += 2 * 8 * rows * length


class Tracer:
    """Spans as [name, start, end, parent index], appended in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        count = _window_work if name == "kernels.window_sums" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(record)
                if count is not None:
                    count(self.counts, args)

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child
        return out


def install(tracer: Tracer) -> list[str]:
    """Patch every binding of every target; return the targets not found."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == "enflolab" or name.startswith("enflolab.")
    ]
    missing = []
    for span, (module_name, path) in TARGETS.items():
        *parents, leaf = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(span)
            continue
        traced = tracer.wrap(span, original)
        if isinstance(owner, type):
            setattr(owner, leaf, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    return missing
