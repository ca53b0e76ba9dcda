"""tools/bench_pairs.py summarizes paired perfbench runs and records the tree each side measured."""

import importlib.util
import subprocess
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


def write_tree(root):
    """A tree with measured files under src/ and perfbench/, and others beside them."""
    files = {
        "src/enflolab/cli.py": b"print('cli')\n",
        "perfbench/run.py": b"print('run')\n",
        "perfbench/reference/table.csv.gz": b"\x1f\x8b\x00",
        "README.md": b"readme\n",
        "tools/bench_pairs.py": b"tool\n",
    }
    for path, data in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_bytes(data)
    return files


def test_tree_hash_changes_with_a_measured_byte_only(tmp_path):
    tool = load_tool()
    write_tree(tmp_path)
    # bytecode caches are skipped outside a git checkout
    (tmp_path / "src/enflolab/__pycache__").mkdir()
    (tmp_path / "src/enflolab/__pycache__/cli.cpython-311.pyc").write_bytes(b"pyc")
    files = tool.measured_files(tmp_path)
    assert files == ["perfbench/reference/table.csv.gz", "perfbench/run.py", "src/enflolab/cli.py"]
    before = tool.tree_hash(tmp_path, files)
    # a file outside src/ and perfbench/ is not measured
    (tmp_path / "README.md").write_bytes(b"Readme\n")
    (tmp_path / "tools/bench_pairs.py").write_bytes(b"tool, edited\n")
    assert tool.measured_files(tmp_path) == files
    assert tool.tree_hash(tmp_path, files) == before
    # one byte under src/ is
    (tmp_path / "src/enflolab/cli.py").write_bytes(b"print('clI')\n")
    assert tool.tree_hash(tmp_path, files) != before


def test_snapshot_copies_the_measured_files_and_names_their_tree(tmp_path):
    tool = load_tool()
    tree, copy = tmp_path / "tree", tmp_path / "copy"
    write_tree(tree)
    copy.mkdir()
    record = tool.snapshot(tree, copy)
    files = tool.measured_files(tree)
    assert tool.measured_files(copy) == files
    assert record == {"sha256": tool.tree_hash(tree, files), "head": None}
    assert not (copy / "README.md").exists()


def test_a_git_checkout_lists_its_unignored_files_and_its_head(tmp_path):
    tool = load_tool()
    write_tree(tmp_path)
    (tmp_path / ".gitignore").write_text("*.log\n")
    (tmp_path / "perfbench/run.log").write_text("ignored\n")

    def git(*argv):
        return subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t", *argv],
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    git("init", "-q")
    git("add", "src/enflolab/cli.py", "perfbench/run.py", ".gitignore")
    git("commit", "-q", "-m", "tree")
    # tracked files and an untracked one are measured, the ignored log is not
    assert tool.measured_files(tmp_path) == [
        "perfbench/reference/table.csv.gz", "perfbench/run.py", "src/enflolab/cli.py"
    ]
    assert tool.git_head(tmp_path) == git("rev-parse", "HEAD")
    # a directory inside the checkout is not the top of one
    assert tool.git_head(tmp_path / "src") is None
