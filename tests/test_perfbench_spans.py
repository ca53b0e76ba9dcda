"""The benchmark's span targets name live code, so a rename cannot silence a required span."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    # loaded from its path and never installed: no enflolab binding is patched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_span_target_resolves_to_a_callable():
    tracing = load_tracing()
    for span, (module_name, path) in tracing.TARGETS.items():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), (span, module_name, path)
            owner = getattr(owner, part)
        assert callable(owner), span


def test_every_required_span_is_a_target():
    tracing = load_tracing()
    for workload, spans in tracing.REQUIRED.items():
        missing = set(spans) - set(tracing.TARGETS)
        assert not missing, (workload, sorted(missing))
