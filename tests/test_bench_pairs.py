"""tools/bench_pairs.py summarizes paired perfbench runs, end to end and from the detail line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def run(wall, rss, pass_median, probe_median):
    """A perfbench run as bench_pairs records it, with the figures summary() reads."""
    return {
        "result": {
            "metrics": {
                "wall_s": {"unit": "s", "value": wall},
                "peak_rss_mb": {"unit": "MB", "value": rss},
            }
        },
        "detail": {
            "pass_s": {"quartiles": [pass_median - 0.1, pass_median, pass_median + 0.1]},
            "probe_s": {"quartiles": [0.0, probe_median, 1.0], "reference": 0.009},
        },
    }


def test_summary_compares_end_to_end_metrics_and_the_detail_medians():
    tool = load_tool()
    base = [run(1.0, 40.0, 0.8, 0.007), run(1.2, 42.0, 0.9, 0.008), run(1.1, 41.0, 0.7, 0.006)]
    change = [run(0.9, 40.0, 0.85, 0.0065), run(1.3, 41.0, 0.75, 0.0085), run(1.0, 43.0, 0.6, 0.005)]
    out = tool.summary(base, change)
    assert set(out) == {"wall_s", "peak_rss_mb", "detail.pass_s", "detail.probe_s"}
    wall = out["wall_s"]
    assert wall["base_median"] == 1.1 and wall["median"] == 1.0
    assert wall["base_quartiles"] == [1.05, 1.1, 1.15]
    assert wall["quartiles"] == [0.95, 1.0, 1.15]
    # this tree's run is lower in pairs 0 and 2; a tie is not a win
    assert wall["pairs_won"] == 2 and wall["pairs"] == 3
    assert out["peak_rss_mb"]["pairs_won"] == 1
    # each run's median pass and probe time is the middle quartile of its detail figure
    passes = out["detail.pass_s"]
    assert passes["base_median"] == 0.8 and passes["median"] == 0.75 and passes["pairs_won"] == 2
    probes = out["detail.probe_s"]
    assert probes["base_median"] == 0.007 and probes["median"] == 0.0065
    assert probes["pairs_won"] == 2 and probes["pairs"] == 3


def test_summary_of_one_pair_repeats_each_value_as_its_quartiles():
    tool = load_tool()
    out = tool.summary([run(1.0, 40.0, 0.8, 0.007)], [run(0.9, 41.0, 0.85, 0.006)])
    assert out["wall_s"]["quartiles"] == [0.9, 0.9, 0.9]
    assert out["detail.probe_s"]["base_quartiles"] == [0.007, 0.007, 0.007]
    assert out["wall_s"]["pairs_won"] == 1 and out["detail.pass_s"]["pairs_won"] == 0
