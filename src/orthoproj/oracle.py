"""Independent verification machinery.

Each oracle takes the claim it checks as an argument and never computes it:
an analytic gradient is held against coordinate-wise central differences of
the loss, a projected gradient against Monte Carlo sampling of feasible
directions, and a step direction against one-step loss changes measured at
several learning rates. None of them calls the gradient, projection,
subspace or training code whose output it judges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import ConfigurationError, DimensionError, NumericError, PreconditionError
from .linalg import OrthonormalBasis, as_vector, dot, norm

__all__ = ["FD_STEP", "SAMPLE_BLOCK", "fd_gradient", "gradient_agreement",
           "SteepestReport", "steepest_check",
           "TaylorReport", "taylor_scaling"]


# central-difference step; 1e-5 balances truncation against rounding in float64
FD_STEP = 1e-5
# rows of steepest_check's samples drawn and scored at a time; a power of two
# keeps BLAS's row grouping in gemv, so the report has the bits of scoring
# every sample as one array
SAMPLE_BLOCK = 1024


def fd_gradient(spec, kind, theta, batch) -> np.ndarray:
    """Coordinate-wise central differences of the loss.

    Deliberately shares no code with :func:`orthoproj.models.gradient`; it
    only ever calls the loss.
    """
    th = as_vector(theta, "theta").copy()
    out = np.empty_like(th)
    for i in range(th.size):
        orig = th[i]
        th[i] = orig + FD_STEP
        f_plus = models.loss(spec, kind, th, batch)
        th[i] = orig - FD_STEP
        f_minus = models.loss(spec, kind, th, batch)
        th[i] = orig
        out[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
    if not np.all(np.isfinite(out)):
        raise NumericError("finite-difference probe produced non-finite values")
    return out


def gradient_agreement(analytic, spec, kind, theta, batch, rel_tol: float = 1e-4) -> float:
    """Worst per-coordinate relative disagreement between ``analytic``, a
    gradient of the loss at theta, and central differences.

    Central differences resolve a derivative no finer than
    roundoff(loss) / (2 * FD_STEP); the denominator floors at that
    resolution divided by ``rel_tol``, so coordinates whose true value sits
    below what the probe can measure (exact zeros included) do not register
    as disagreements while every measurable coordinate is still held to
    ``rel_tol``.
    """
    analytic = as_vector(analytic, "analytic")
    if analytic.size != np.size(theta):
        raise DimensionError(f"analytic has {analytic.size} entries, theta {np.size(theta)}")
    approx = fd_gradient(spec, kind, theta, batch)
    loss_scale = max(1.0, abs(models.loss(spec, kind, theta, batch)))
    fd_noise = 8.0 * np.finfo(np.float64).eps * loss_scale / (2.0 * FD_STEP)
    floor = fd_noise / rel_tol
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(approx)), floor)
    return float((np.abs(analytic - approx) / denom).max())


@dataclass(frozen=True)
class SteepestReport:
    bound: float            # -||projected g||, the analytic optimum
    min_directional: float  # best (most negative) sampled <g, v>
    attained: float         # <g, v*> for v* = -projected g / norm
    n_samples: int
    violations: int         # samples below bound - slack

    @property
    def attainment_error(self) -> float:
        return abs(self.attained - self.bound)


def steepest_check(g, g_perp, basis: OrthonormalBasis, n_samples: int,
                   rng: np.random.Generator, slack: float = 1e-9) -> SteepestReport:
    """Monte-Carlo check that no feasible unit direction descends faster
    than -g_perp, the negated projection of g onto the complement of the
    basis span.

    The bound -||g_perp|| and its attainment <g, -g_perp / ||g_perp||> are
    read off the given g_perp. The samples are standard-normal vectors
    projected into the complement here (matrix form, independent of the
    library's per-vector loop), normalized, and scored by the directional
    derivative <g, v>, ``SAMPLE_BLOCK`` rows at a time, so memory does not
    grow with n_samples. Requires a nonzero g_perp.
    """
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
    gv = as_vector(g, "g")
    g_perp = as_vector(g_perp, "g_perp")
    if g_perp.size != gv.size:
        raise DimensionError(f"g_perp has {g_perp.size} entries, g {gv.size}")
    bound = -norm(g_perp)
    if bound == 0.0:
        raise PreconditionError("g lies inside the subspace span; the bound assumes "
                                "a nonzero orthogonal component")

    u = basis.vectors
    min_directional, violations, kept = np.inf, 0, 0
    for start in range(0, n_samples, SAMPLE_BLOCK):
        z = rng.standard_normal((min(SAMPLE_BLOCK, n_samples - start), gv.size))
        if basis.rank:
            z -= (z @ u.T) @ u
        norms = np.sqrt((z * z).sum(axis=1))
        keep = norms > 0
        directional = (z[keep] / norms[keep, None]) @ gv
        min_directional = float(directional.min(initial=min_directional))
        violations += int(np.count_nonzero(directional < bound - slack))
        kept += int(np.count_nonzero(keep))
    if not kept:
        raise PreconditionError("every sampled direction projected to zero")
    attained = dot(gv, -g_perp / norm(g_perp))
    return SteepestReport(bound=bound, min_directional=min_directional,
                          attained=attained, n_samples=kept,
                          violations=violations)


@dataclass(frozen=True)
class TaylorReport:
    etas: tuple[float, ...]
    loss_changes: tuple[float, ...]       # reference-loss change per one step
    closed_form: tuple[float, ...]        # quadratic remainder 0.5*||A dtheta||^2
    slope: float
    all_zero: bool                        # every |change| was exactly zero

    @property
    def max_remainder_mismatch(self) -> float:
        """Worst relative disagreement between the measured change and the
        closed-form remainder plus linear term, floored for fp-zero rows."""
        worst = 0.0
        for measured, predicted in zip(self.loss_changes, self.closed_form):
            denom = max(abs(measured), abs(predicted), 1e-12)
            worst = max(worst, abs(measured - predicted) / denom)
        return worst


def taylor_scaling(family, etas, direction) -> TaylorReport:
    """Measure how the one-step reference-loss change under the step
    theta0 - eta * direction scales with eta.

    Built for the quadratic pair, where the loss change under a step dtheta
    is exactly <g_ref, dtheta> + 0.5 * ||A dtheta||^2 for the reference
    task's system (A, b) = (``ref.train.inputs``, ``ref.train.targets``)
    and g_ref = A^T (A theta0 - b). A direction orthogonal to g_ref kills
    the linear term, leaving pure second-order scaling (log-log slope 2); a
    direction correlated with it is first-order (slope 1). Zero rows are
    excluded from the fit; if every row is zero the change is
    curvature-only below float resolution and the slope is reported as
    exactly 2.
    """
    etas = tuple(float(e) for e in etas)
    if len(etas) < 3 or any(b >= a for a, b in zip(etas, etas[1:])):
        raise ConfigurationError("etas must be at least 3 strictly decreasing values")
    if family.kind != "quadratic_pair":
        raise ConfigurationError("taylor_scaling needs the quadratic family (closed-form remainder)")
    direction = as_vector(direction, "direction")
    theta0 = family.theta0
    if direction.size != theta0.size:
        raise DimensionError(f"direction has {direction.size} entries, theta0 {theta0.size}")

    ref = family.capability_tasks[0]
    a_ref = ref.train.inputs
    g_ref = a_ref.T @ (a_ref @ theta0 - ref.train.targets)
    ref_loss0 = ref.loss(theta0)
    changes, predicted = [], []
    for eta in etas:
        dtheta = -eta * direction
        changes.append(ref.loss(theta0 + dtheta) - ref_loss0)
        step_image = a_ref @ dtheta
        predicted.append(dot(g_ref, dtheta) + 0.5 * float(step_image @ step_image))

    nonzero = [(e, abs(c)) for e, c in zip(etas, changes) if c != 0.0]
    if not nonzero:
        return TaylorReport(etas, tuple(changes), tuple(predicted), 2.0, True)
    xs = np.log([e for e, _ in nonzero])
    ys = np.log([c for _, c in nonzero])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(nonzero) > 1 else 2.0
    return TaylorReport(etas, tuple(changes), tuple(predicted), slope, False)
