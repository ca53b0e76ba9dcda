import importlib
import pkgutil

import enflolab


def test_every_exported_name_resolves():
    modules = [enflolab] + [
        importlib.import_module(f"enflolab.{info.name}")
        for info in pkgutil.iter_modules(enflolab.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists {missing}"
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
    namespace = {}
    exec("from enflolab import *", namespace)
    assert set(enflolab.__all__) <= set(namespace)
