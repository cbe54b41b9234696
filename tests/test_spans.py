"""The benchmark's span tracer counts every public call the training loop
makes, and the counts follow from the config as perfbench/README.md states.

Only ``perfbench/spans.py`` is loaded: ``perfbench/run.py`` pins BLAS thread
variables when it is imported.
"""

import dataclasses
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import orthoproj
import orthoproj.verify  # noqa: F401  (the tracer wraps verify's checks too)
from orthoproj import optimizer
from orthoproj.config import DEFAULTS

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def leg_config(stem, method, steps, period):
    base = DEFAULTS[stem].train
    (stage,) = base.stages
    return dataclasses.replace(base, method=method, steps=steps, refresh_every=period,
                               stages=(dataclasses.replace(stage, steps=steps),))


def builds(config):
    """B: a stage of global steps [start, end) with refresh period K
    rebuilds at each multiple of K in that range, ceil(end/K) - ceil(start/K)."""
    b = start = 0
    for stage in config.stages:
        k = config.refresh_every if stage.refresh_every is None else stage.refresh_every
        end = start + stage.steps
        b += math.ceil(end / k) - math.ceil(start / k)
        start = end
    return b


def expected(config, family, result):
    """Per-leg counts with steps S, M reference facets, P probe facets and
    B builds."""
    s, m = config.steps, config.ref_count
    p = len(family.capability_tasks)
    want = {"optimizer.train": 1, "models.loss": s * (1 + p), "tasks.probe_eval": s * (1 + p)}
    if config.method == "ortho":
        b = builds(config)
        accepted = sum(rank for _, rank in result.subspace_history)
        want.update({"models.gradient": s + b * m, "tasks.sample_batch": s + b * m,
                     "linalg.project_complement": s, "subspace.estimate_subspace": b,
                     "linalg.gram_schmidt": b, "linalg.norm": 2 * s + 2 * b * m + accepted})
    else:
        per_step = 1 + m if config.method == "replay" else 1
        want.update({"models.gradient": s * per_step, "tasks.sample_batch": s * per_step,
                     "linalg.project_complement": 0, "subspace.estimate_subspace": 0,
                     "linalg.gram_schmidt": 0, "linalg.norm": s})
    want["linalg.dot"] = 0  # train() takes no public dot
    return want


@pytest.mark.parametrize("method", ["naive", "ortho", "replay"])
@pytest.mark.parametrize("stem, steps, period", [("regression", 7, 3), ("quadratic", 5, 2),
                                                 ("policy", None, None)])
def test_span_counts_follow_the_config(spans, quadratic_family, regression_family,
                                       policy_family, stem, steps, period, method):
    family = {"regression": regression_family, "policy": policy_family,
              "quadratic": lambda: quadratic_family(math.pi / 4)}[stem]()
    if steps is None:  # the shipped SFT -> DPO stages, refreshed every 30 and 5 steps
        config = dataclasses.replace(DEFAULTS[stem].train, method=method)
        assert builds(config) == 60 // 30 + 40 // 5
    else:
        config = leg_config(stem, method, steps, period)
    tracer = spans.Tracer()
    with spans.patched(tracer.bindings(orthoproj)):
        result = optimizer.train(config, family)
    got = tracer.counts(0, len(tracer))
    want = expected(config, family, result)
    assert {k: got.get(k, 0) for k in want} == want


def test_verify_suite_benchmark_runs_clean():
    # a short verify_suite run: every pass it times must pass all its checks
    # and repeat its first run bit for bit; it writes only under .perfbench_out/
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_suite",
                           "--seed", "1", "--seconds", "0.2", "--trace", "0"],
                          cwd=SPANS_PATH.parents[1], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
