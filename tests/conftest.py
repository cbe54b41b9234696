import math
from functools import lru_cache

import pytest

from orthoproj import tasks
from orthoproj.config import DEFAULTS


@lru_cache(maxsize=None)
def _family(stem: str, seed: int, alpha: float | None = None):
    exp = DEFAULTS[stem]
    overrides = {} if alpha is None else {"alpha": alpha}
    return tasks.build_family(exp.family_kind, seed, **dict(exp.family_params, **overrides))


# Families are immutable and training only reads them, so every fixture hands
# out one shared family per (shipped experiment, seed, alpha).

@pytest.fixture
def quadratic_family():
    """The shipped quadratic family at a given alpha and seed."""
    return lambda alpha, seed=0: _family("quadratic", seed, alpha)


@pytest.fixture
def regression_family():
    """The shipped regression family at a given alpha and seed."""
    return lambda alpha=math.pi / 3, seed=0: _family("regression", seed, alpha)


@pytest.fixture
def policy_family():
    """The shipped policy (SFT -> DPO) family at a given seed."""
    return lambda seed=0: _family("policy", seed)
