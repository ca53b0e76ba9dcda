import importlib
import math
import pkgutil
from pathlib import Path

import enflolab


def test_every_exported_name_resolves():
    modules = [
        importlib.import_module(f"enflolab.{info.name}")
        for info in pkgutil.iter_modules(enflolab.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists {missing}"
        assert len(set(module.__all__)) == len(module.__all__), module.__name__


def test_readme_library_sketch_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library sketch\n", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3
    assert all(math.isfinite(float(value)) for value in printed[:2])
    assert int(printed[2]) >= 1
