"""Training loops: projected descent, naive descent, and a replay baseline.

All methods share the same batch stream: the safety-batch generator and the
reference-batch generator are independent child streams of the run seed, so
"ortho with no reference tasks" and "replay with lambda 0" reproduce the
naive run bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericError
from .linalg import norm, project_complement
from .metrics import RunRecord
from .subspace import CapabilitySubspace, estimate_subspace

__all__ = ["Stage", "TrainConfig", "TrainResult", "train", "NO_REFRESH"]

METHODS = ("ortho", "naive", "replay")
NO_REFRESH = math.inf  # refresh period of the static basis: built at step 0, never rebuilt


@dataclass(frozen=True)
class Stage:
    """One training phase: which task, which loss, how many steps.

    ``refresh_every`` optionally overrides the run-level refresh period for
    this phase (a likelihood phase typically tolerates a coarser period than
    a preference phase).
    """

    task: str
    loss: str
    steps: int
    refresh_every: int | float | None = None


@dataclass(frozen=True)
class TrainConfig:
    """Every hyperparameter of a run.

    refresh_every (the period K) is a positive integer or ``NO_REFRESH``;
    ref_count (M) selects how many of the family's capability facets feed
    the subspace (the first M, unless ref_facets picks specific ones);
    delta is the relative Gram-Schmidt threshold, the rank filter's only
    tolerance; replay_lambda weighs the mixed-in mean reference gradient for
    the replay method. probes=False evaluates the probes only on each
    stage's last step (see :func:`train`). ref_facets and probes are library
    options, not config-file keys; every other field is a ``[train]`` key.
    """

    method: str = "ortho"
    eta: float = 1e-3
    steps: int = 100
    refresh_every: int | float = 5
    ref_count: int = 2
    delta: float = 1e-6
    safety_batch: int = 32
    ref_batch: int = 200
    replay_lambda: float = 1.0
    seed: int = 0
    stages: tuple[Stage, ...] = ()
    ref_facets: tuple[int, ...] | None = None
    probes: bool = True

    def with_refresh(self, period) -> "TrainConfig":
        """This config with refresh period ``period`` on the run and on
        every stage, as the K ablations set it."""
        return replace(self, refresh_every=period,
                       stages=tuple(replace(s, refresh_every=period) for s in self.stages))

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on the first invalid field. A
        message about one field starts with its name, so a config error can
        point at the line of that ``[train]`` key."""
        if self.method not in METHODS:
            raise ConfigurationError(f"method must be one of {', '.join(METHODS)}, "
                                     f"got {self.method!r}")
        if not isinstance(self.probes, bool):
            raise ConfigurationError(f"probes must be True or False, got {self.probes!r}")
        counts = [(n, getattr(self, n)) for n in ("steps", "ref_count", "safety_batch",
                                                  "ref_batch", "seed")]
        for name, value in counts + [(f"stage {s.task!r} steps", s.steps) for s in self.stages]:
            if not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if not 0 < self.eta < math.inf:
            raise ConfigurationError(f"eta must be positive and finite, got {self.eta}")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        for what, period in [("refresh_every", self.refresh_every),
                             *[("stages refresh period", s.refresh_every) for s in self.stages
                               if s.refresh_every is not None]]:
            if period != NO_REFRESH and (not float(period).is_integer() or period < 1):
                raise ConfigurationError(f"{what} must be a positive integer or inf, got {period}")
        if self.ref_count < 0:
            raise ConfigurationError(f"ref_count must be >= 0, got {self.ref_count}")
        if not 0 < self.delta < math.inf:
            raise ConfigurationError(f"delta must be positive and finite, got {self.delta}")
        if self.safety_batch < 1:
            raise ConfigurationError(f"safety_batch must be positive, got {self.safety_batch}")
        if self.ref_batch < 1:
            raise ConfigurationError(f"ref_batch must be positive, got {self.ref_batch}")
        if not 0 <= self.replay_lambda < math.inf:
            raise ConfigurationError(f"replay_lambda must be >= 0 and finite, got {self.replay_lambda}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if not self.stages:
            raise ConfigurationError("at least one stage is required")
        if any(s.steps < 1 for s in self.stages):
            raise ConfigurationError("every stage needs at least one step")
        if sum(s.steps for s in self.stages) != self.steps:
            raise ConfigurationError(
                f"steps is {self.steps}, but the stages sum to {sum(s.steps for s in self.stages)}")
        if self.ref_facets is not None and len(self.ref_facets) != self.ref_count:
            raise ConfigurationError(
                f"ref_facets names {len(self.ref_facets)} facets, ref_count is {self.ref_count}")


@dataclass(frozen=True, eq=False)
class TrainResult:
    theta_final: np.ndarray
    records: tuple[RunRecord, ...]
    config: TrainConfig
    subspace_history: tuple[tuple[int, int], ...]  # (built_at_step, rank)
    family_fingerprint: str


def _mixed_direction(theta, g, ref_tasks, ref_batches, lam):
    """g + lam * mean reference gradient, formed in the first reference
    gradient's array. Adding 0.0 first rounds as the sum from zeros did,
    turning -0.0 entries into +0.0.

    The mean skips its division when there is one facet, and the mix skips
    its multiply when lam is 1.0: x / 1 and 1.0 * x are x bit for bit,
    signed zeros and infinities included. So one facet at lam 1.0 makes
    two passes over d-vectors (the + 0.0 and the + g), not four."""
    acc = ref_tasks[0].gradient(theta, ref_batches[0])
    np.add(acc, 0.0, out=acc)
    for ref_task, ref_batch in zip(ref_tasks[1:], ref_batches[1:]):
        acc += ref_task.gradient(theta, ref_batch)
    if len(ref_tasks) > 1:
        np.divide(acc, len(ref_tasks), out=acc)
    if lam != 1.0:
        np.multiply(lam, acc, out=acc)
    return np.add(g, acc, out=acc)


def _removed_fraction(g_norm: float, g_proj_norm: float) -> float:
    if g_norm == 0.0:
        return 0.0
    frac = 1.0 - (g_proj_norm / g_norm) ** 2
    return min(max(frac, 0.0), 1.0)


def train(config: TrainConfig, family) -> TrainResult:
    """Run the configured method over the family's stages.

    Per step: (ortho only) rebuild the subspace when the active refresh
    period divides the global step index. Then take the safety gradient,
    turn it into the method's direction (ortho projects it onto the
    subspace's complement, replay mixes in the mean reference gradient,
    naive keeps it) and step theta - eta * direction. Record probe losses
    at the new parameters together with the gradient norms, removed
    fraction, and subspace rank/age used for the step.
    A preference stage trains against a copy of its task whose reference
    policy is frozen at the stage-entry parameters; the family is only read.

    With ``config.probes`` False the probes run only on each stage's last
    step. Every other record holds ``nan`` for ``safety_loss`` and for each
    of its ``ref_losses`` (one per capability facet, as with probes on); its
    gradient norms, removed fraction, rank and age, the stage-end records,
    ``theta_final`` and ``subspace_history`` are the bytes of a probed run.
    A non-finite step is then reported by the next step's gradient.

    Memory: a leg starts from the family's read-only ``theta0`` itself,
    not a copy; no step writes theta in place, since each update is formed
    in the direction's own array. Between steps the loop holds theta and
    the active basis (and a preference stage's reference policy); no
    gradient outlives its step.
    Within a step it holds at most two parameter-sized arrays for naive
    (theta and the gradient, which becomes the new theta) plus the norm's
    block buffer, three for replay with one reference facet and four with
    more, and the basis plus three for ortho (theta, the gradient, its
    projection). A refresh frees the old basis before estimating the new
    one, then holds theta, the M candidate gradients, the basis block and
    one more array: the basis plus M + 2.
    """
    config.validate()
    for stage in config.stages:
        if stage.task not in family.tasks:
            raise ConfigurationError(f"family has no task named {stage.task!r}")
        if family.tasks[stage.task].kind.tag != stage.loss:
            raise ConfigurationError(
                f"stage {stage.task!r} declares loss {stage.loss!r}, task has "
                f"{family.tasks[stage.task].kind.tag!r}")
    if config.ref_count > len(family.capability_tasks):
        raise ConfigurationError(
            f"ref_count {config.ref_count} exceeds the {len(family.capability_tasks)} "
            "capability facets of the family")

    if config.ref_facets is not None:
        if any(i < 0 or i >= len(family.capability_tasks) for i in config.ref_facets):
            raise ConfigurationError(f"ref_facets {config.ref_facets} out of range")
        ref_tasks = [family.capability_tasks[i] for i in config.ref_facets]
    else:
        ref_tasks = list(family.capability_tasks[:config.ref_count])
    probe_tasks = list(family.capability_tasks)
    unprobed = (math.nan,) * len(probe_tasks)

    seed_seq = np.random.SeedSequence(config.seed)
    child_safety, child_ref = seed_seq.spawn(2)
    rng_safety = np.random.default_rng(child_safety)
    rng_ref = np.random.default_rng(child_ref)

    theta = family.theta0
    subspace: CapabilitySubspace | None = None
    history: list[tuple[int, int]] = []
    records: list[RunRecord] = []

    use_subspace = config.method == "ortho" and config.ref_count > 0
    t = 0
    for stage in config.stages:
        task = family.tasks[stage.task]
        if stage.loss == "dpo_pairwise":
            task = replace(task, probe=replace(task.probe, ref_params=theta.copy()))
        period = stage.refresh_every if stage.refresh_every is not None else config.refresh_every
        for i in range(stage.steps):
            try:
                # t % NO_REFRESH is t, so a static basis is built at step 0 only
                if use_subspace and t % period == 0:
                    subspace = None  # the old basis is freed before the new one is built
                    subspace = estimate_subspace(theta, ref_tasks, config.ref_batch,
                                                 rng_ref, config.delta, t)
                    history.append((t, subspace.rank))

                # one gradient, one direction, one update; only the norms of
                # a step's gradients outlive it
                batch = task.sample_batch(rng_safety, config.safety_batch)
                d = task.gradient(theta, batch)
                g_norm = g_proj_norm = norm(d)
                rank = age = 0
                if use_subspace:
                    # a gradient inside the subspace projects to (numerical)
                    # zero and the step stalls; that is logged, not raised
                    d = project_complement(d, subspace.basis)
                    g_proj_norm = norm(d)
                    rank, age = subspace.rank, t - subspace.built_at_step
                elif config.method == "replay" and ref_tasks:
                    ref_batches = [rt.sample_batch(rng_ref, config.ref_batch) for rt in ref_tasks]
                    d = _mixed_direction(theta, d, ref_tasks, ref_batches, config.replay_lambda)
                # theta - eta * d, formed in the direction's own array
                theta = np.subtract(theta, np.multiply(config.eta, d, out=d), out=d)

                if config.probes or i == stage.steps - 1:
                    safety_loss = task.loss(theta)
                    ref_losses = tuple(pt.loss(theta) for pt in probe_tasks)
                else:
                    safety_loss, ref_losses = math.nan, unprobed
                records.append(RunRecord(
                    step=t,
                    stage=stage.task,
                    safety_loss=safety_loss,
                    ref_losses=ref_losses,
                    g_norm=g_norm,
                    g_tilde_norm=g_proj_norm,
                    removed_fraction=_removed_fraction(g_norm, g_proj_norm),
                    rank=rank,
                    age=age,
                ))
            except NumericError as exc:
                raise NumericError(f"step {t}: {exc}") from exc
            t += 1

    return TrainResult(
        theta_final=theta,
        records=tuple(records),
        config=config,
        subspace_history=tuple(history),
        family_fingerprint=family.fingerprint,
    )
