"""Capability-subspace lifecycle: periodic estimation and staleness tracking.

The subspace is the span of one gradient per reference task, orthonormalized
with a residual threshold. It is rebuilt every ``refresh_every`` steps and
used unchanged in between; ``NO_REFRESH`` builds it once at step 0 and never
again (the "static basis" ablation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import ConfigurationError, NumericError
from .linalg import OrthonormalBasis, gram_schmidt, norm

__all__ = ["CapabilitySubspace", "NO_REFRESH", "needs_refresh", "estimate_subspace"]

NO_REFRESH = math.inf  # sentinel refresh period: build once, never rebuild


@dataclass(frozen=True)
class CapabilitySubspace:
    """An orthonormal basis for the reference-gradient span plus the
    metadata needed to audit staleness (step built, candidate count)."""

    basis: OrthonormalBasis
    built_at_step: int
    candidate_count: int

    @property
    def rank(self) -> int:
        return self.basis.rank


def needs_refresh(step: int, period) -> bool:
    """True iff the subspace should be (re)built at this step.

    ``period`` is a positive integer, or ``NO_REFRESH`` in which case only
    step 0 triggers a build.
    """
    if step < 0:
        raise ConfigurationError(f"step must be non-negative, got {step}")
    if period == NO_REFRESH:
        return step == 0
    if not float(period).is_integer() or period <= 0:
        raise ConfigurationError(f"refresh period must be a positive integer or inf, got {period}")
    return step % int(period) == 0


def estimate_subspace(model_state, ref_tasks, batch_size: int,
                      rng: np.random.Generator, delta: float,
                      step: int) -> CapabilitySubspace:
    """Sample one mini-batch per reference task, take the gradients at the
    current parameters, and orthonormalize them in task order.

    ``delta`` is a relative threshold: the absolute residual cutoff handed to
    Gram-Schmidt is ``delta * max(candidate gradient norms)``, which makes
    rank filtering invariant to the overall gradient scale.
    """
    if not ref_tasks:
        raise ConfigurationError("estimate_subspace needs at least one reference task")
    theta = np.asarray(model_state, dtype=np.float64)  # models.gradient validates it
    grads = []
    for i, task in enumerate(ref_tasks):
        try:
            batch = task.sample_batch(rng, batch_size)
            g = models.gradient(task.spec, task.kind, theta, batch)
        except NumericError as exc:
            raise NumericError(f"reference task {i} ({task.name}): {exc}") from exc
        grads.append(g)
    max_norm = max(norm(g) for g in grads)
    delta_abs = delta * max_norm if max_norm > 0 else delta
    basis = gram_schmidt(grads, delta_abs)
    return CapabilitySubspace(basis, built_at_step=step, candidate_count=len(ref_tasks))
