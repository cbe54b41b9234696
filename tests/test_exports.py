import importlib
import pkgutil

import orthoproj

MODULES = sorted(info.name for info in pkgutil.iter_modules(orthoproj.__path__))


def test_every_all_entry_resolves():
    # a stale __all__ entry only breaks `from orthoproj.<module> import *`
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"orthoproj.{name}")
        exported[name] = list(getattr(module, "__all__", ()))
        missing = [entry for entry in exported[name] if not hasattr(module, entry)]
        assert not missing, f"orthoproj.{name}.__all__ names missing {missing}"
        namespace = {}
        exec(f"from orthoproj.{name} import *", namespace)
        assert set(exported[name]) <= set(namespace)
    assert "train" in exported["optimizer"]
