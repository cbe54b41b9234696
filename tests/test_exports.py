import importlib
import pkgutil

import numpy as np
import pytest

import orthoproj
from orthoproj.config import DEFAULTS
from orthoproj.linalg import OrthonormalBasis
from orthoproj.models import Batch, LossKind, ModelSpec
from orthoproj.optimizer import TrainResult
from orthoproj.subspace import CapabilitySubspace
from orthoproj.tasks import DifferentiableTask, quadratic_family

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


def _system():
    return Batch(np.ones((2, 3)), np.zeros(2))


# each builds a fresh object holding fresh arrays, the same on every call
_BUILDERS = {
    "Batch": _system,
    "DifferentiableTask": lambda: DifferentiableTask(
        "t", ModelSpec("quadratic", (3,)), LossKind("squared_error"), _system(), _system()),
    "TaskFamily": lambda: quadratic_family(4, 0.5, seed=0),
    "OrthonormalBasis": lambda: OrthonormalBasis(np.eye(2)),
    "CapabilitySubspace": lambda: CapabilitySubspace(OrthonormalBasis(np.eye(2)), 0, 2),
    "TrainResult": lambda: TrainResult(np.zeros(2), (), DEFAULTS["quadratic"].train, (), "f"),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_objects_holding_arrays_compare_and_hash_by_identity(name):
    a, b = _BUILDERS[name](), _BUILDERS[name]()
    assert type(a).__name__ == name
    assert not a == b
    assert a != b
    assert a == a
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
