import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import orthoproj
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


@pytest.fixture
def at_each_blas_thread_count():
    """Run a Python script at one and two OpenBLAS threads; returns the
    standard output lines of each run. The thread count is fixed before
    numpy loads, so each count needs a fresh process."""
    src = str(Path(orthoproj.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(script, *args):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                                  text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.splitlines())
        return outputs

    return run
