import math
from functools import lru_cache

import pytest

from orthoproj import tasks
from orthoproj.config import DEFAULTS


def _build(stem, seed, **overrides):
    exp = DEFAULTS[stem]
    return tasks.build_family(exp.family_kind, seed, **dict(exp.family_params, **overrides))


@lru_cache(maxsize=None)
def _quadratic(alpha_key: str, seed: int):
    return _build("quadratic", seed, alpha=float(alpha_key))


@lru_cache(maxsize=None)
def _regression(alpha_key: str, seed: int):
    return _build("regression", seed, alpha=float(alpha_key))


@pytest.fixture
def quadratic_family():
    """Cached quadratic families keyed by (alpha, seed); immutable tasks."""
    return lambda alpha, seed=0: _quadratic(repr(alpha), seed)


@pytest.fixture
def regression_family():
    """Cached regression families; their tasks hold no mutable state."""
    return lambda alpha=math.pi / 3, seed=0: _regression(repr(alpha), seed)


@pytest.fixture
def policy_family():
    """Fresh policy family per use: its dpo task's reference policy is
    re-frozen during training."""
    return lambda seed=0: _build("policy", seed)
