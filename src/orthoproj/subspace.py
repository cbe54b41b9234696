"""Capability-subspace estimation, with the metadata to audit staleness.

The subspace is the span of one gradient per reference task, orthonormalized
with a residual threshold. :func:`orthoproj.optimizer.train` rebuilds it
every ``refresh_every`` steps and uses it unchanged in between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import ConfigurationError, NumericError
from .linalg import OrthonormalBasis, gram_schmidt, norm

__all__ = ["CapabilitySubspace", "estimate_subspace"]


@dataclass(frozen=True, eq=False)
class CapabilitySubspace:
    """An orthonormal basis for the reference-gradient span plus the
    metadata needed to audit staleness (step built, candidate count)."""

    basis: OrthonormalBasis
    built_at_step: int
    candidate_count: int

    @property
    def rank(self) -> int:
        return self.basis.rank


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
