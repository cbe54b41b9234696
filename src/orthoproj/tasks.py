"""Synthetic task generators with controllable interference.

Each family pairs a "safety" objective with one or two "capability"
(reference) objectives whose gradient geometry conflicts with it by a
tunable amount, so that forgetting under naive fine-tuning is predictable
and the effect of projecting it out is measurable.
"""

from __future__ import annotations

import inspect
import math
import numbers
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import models
from .errors import ConfigurationError, DimensionError, NumericError
from .linalg import all_finite, norm
from .models import Batch, LossKind, ModelSpec

__all__ = [
    "DifferentiableTask",
    "TaskFamily",
    "quadratic_family",
    "regression_family",
    "policy_family",
    "FAMILIES",
    "family_schema",
    "read_family",
    "build_family",
]

PROBE_ROWS = 512  # held-out probe size for data-driven tasks

# fixed pre-training budgets (full-batch steps, learning rate); recorded in
# family params so theta0 is reproducible and documented
REGRESSION_PRETRAIN = (300, 0.05)
POLICY_PRETRAIN = (1000, 1.0)

# the quadratic pair's residuals at theta0 (capability, safety); nonzero so
# both gradients are nonzero, and recorded in family params like the budgets
QUADRATIC_RESIDUALS = (0.3, 2.5)

# amplitude of the safety teacher's own-block component relative to the
# capability teachers; bounds how far fitting the safety-specific skill has
# to move the shared layers
_SAFETY_OWN_SCALE = 2.0


# (label, batch, field) of every task array, in the order fingerprint hashes them
_ARRAYS = (("train_inputs", "train", "inputs"), ("train_targets", "train", "targets"),
           ("probe_inputs", "probe", "inputs"), ("probe_targets", "probe", "targets"),
           ("ref_params", "probe", "ref_params"))


def _refuse_pickle(obj):
    # A family is rebuilt from its config, never shipped: unpickling and
    # copy.copy/deepcopy would skip __post_init__ and leave arrays writable.
    raise TypeError(f"a {type(obj).__name__} is rebuilt from its config, not pickled or copied")


@dataclass(frozen=True, eq=False)
class DifferentiableTask:
    """A loss kind plus two batches: ``train``, the whole training set, and
    ``probe``, the held-out probe, which never feeds a gradient.

    A quadratic task is one analytic system, so ``train`` is ``probe``. A
    dpo_pairwise task states its reference policy once, as
    ``probe.ref_params``, and each sampled batch carries it. Tasks are
    immutable and their arrays read-only; both batches are validated when
    they are built, a dpo_pairwise training set's (rows, 2) targets when the
    task is, and ``dataclasses.replace`` makes a task with new data.
    """

    name: str
    spec: ModelSpec
    kind: LossKind
    train: Batch
    probe: Batch

    def __post_init__(self):
        if self.kind.tag == "dpo_pairwise":
            # the training set has no ref_params, so Batch did not check it
            rows, shape = len(self.train.inputs), np.shape(self.train.targets)
            if shape != (rows, 2):
                raise DimensionError(f"task {self.name!r}: preference training targets "
                                     f"must be ({rows}, 2), got shape {shape}")
        for _, batch, fld in _ARRAYS:
            arr = getattr(getattr(self, batch), fld)
            if arr is not None:
                arr.flags.writeable = False

    __reduce__ = _refuse_pickle

    def sample_batch(self, rng: np.random.Generator, size: int) -> Batch:
        """Draw a training batch of rows (a dpo_pairwise row is one
        preference pair) without replacement. A batch larger than the set
        of n takes ``size // n`` whole permutations of it plus ``size % n``
        more drawn without replacement, so every row appears ``size // n``
        or one more times. The batch is a copy of those rows of the
        validated training set, carrying the validated ``probe.ref_params``,
        and is not checked again (:meth:`Batch.rows`). The quadratic kind
        returns its whole system (no rng consumed)."""
        if size < 1:
            raise ConfigurationError(f"batch size must be positive, got {size}")
        data = self.train
        if self.spec.kind == "quadratic":
            return data
        n = len(data.inputs)
        if size <= n:
            idx = rng.choice(n, size=size, replace=False)
        else:
            idx = np.concatenate([rng.permutation(n) for _ in range(size // n)]
                                 + [rng.choice(n, size=size % n, replace=False)])
        return data.rows(idx, self.probe.ref_params)

    def loss(self, theta, batch: Batch | None = None) -> float:
        return models.loss(self.spec, self.kind, theta, self.probe if batch is None else batch)

    def gradient(self, theta, batch: Batch | None = None) -> np.ndarray:
        return models.gradient(self.spec, self.kind, theta, self.probe if batch is None else batch)


@dataclass(frozen=True, eq=False)
class TaskFamily:
    """A named set of tasks sharing one parameter vector.

    ``capability_tasks`` are the ordered reference facets used for subspace
    estimation and tax probes. ``safety_metric_task`` names the task whose
    probe defines the run-level safety metric (for multi-stage families this
    is the reference-free first-stage task, so theta0 vs theta_T is always
    comparable). Both name members of ``tasks``: each capability task is the
    very object ``tasks`` holds under its name, so the fingerprint, which
    hashes ``tasks``, covers every array training and the tax read. Like its
    tasks, a family is immutable: ``theta0`` is read-only and ``tasks`` and
    ``params`` are read-only views of private copies.
    """

    kind: str
    seed: int
    theta0: np.ndarray
    capability_tasks: tuple[DifferentiableTask, ...]
    tasks: Mapping[str, DifferentiableTask]
    safety_metric_task: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.theta0.flags.writeable = False
        object.__setattr__(self, "tasks", MappingProxyType(dict(self.tasks)))
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        strays = [t.name for t in self.capability_tasks if self.tasks.get(t.name) is not t]
        if strays:
            raise ConfigurationError(f"capability tasks {strays} are not members of tasks")
        if self.safety_metric_task not in self.tasks:
            raise ConfigurationError(f"safety_metric_task {self.safety_metric_task!r} "
                                     "is not a task of the family")

    __reduce__ = _refuse_pickle

    @cached_property
    def fingerprint(self) -> str:
        """sha256 hex digest of the family: ``kind``, ``seed``, ``params``,
        ``safety_metric_task``, the capability task names in order, each
        task's name, spec and loss, and the dtype, shape and bytes of
        ``theta0`` and of each array of every task's two batches, labelled
        as in ``_ARRAYS``. Capability tasks are members of ``tasks``, so
        their arrays are hashed there. Computed on first use."""
        import hashlib  # loading it costs ~4 ms, so only families that are hashed pay
        h = hashlib.sha256(repr((
            self.kind, self.seed, sorted(self.params.items()), self.safety_metric_task,
            [t.name for t in self.capability_tasks],
            [(name, t.spec, t.kind) for name, t in sorted(self.tasks.items())],
        )).encode())
        labelled = [("theta0", self.theta0)] + [
            (f"{name}.{label}", getattr(getattr(t, batch), fld))
            for name, t in sorted(self.tasks.items()) for label, batch, fld in _ARRAYS]
        for label, arr in labelled:
            if arr is not None:
                h.update(f"{label} {arr.dtype.str} {arr.shape}".encode())
                h.update(memoryview(np.ascontiguousarray(arr)))
        return h.hexdigest()


def _snap(x: float) -> float:
    # cos(pi/2) is 6e-17, not zero; snap so exact-angle constructions are exact
    return 0.0 if abs(x) < 1e-15 else x


# ---------------------------------------------------------------------------
# family constructors; each one's signature is that family's config schema,
# and each rejection names its parameter first, so that a config error can
# point at that key's line
# ---------------------------------------------------------------------------

def quadratic_family(d: int, alpha: float, seed: int) -> TaskFamily:
    """Two quadratic objectives whose gradients at theta0 meet at angle alpha.

    Directions u1 (even index support) and f (odd support) are exactly
    orthogonal in float arithmetic. The safety loss is
    0.5*||u2.theta - b2||^2 along u2 = cos(alpha) u1 + sin(alpha) f. The
    capability loss 0.5*||A1 theta - b1||^2 has two rows: u1, which carries
    the only nonzero residual at theta0 (so the capability gradient points
    exactly along u1), and w = sin(alpha) u1 - cos(alpha) f, the in-plane
    direction orthogonal to the safety gradient. The w row gives the
    capability objective curvature transverse to its own gradient, so a
    projected safety step has a nonzero, purely second-order capability
    cost; because w is orthogonal to u2, it adds no coupling along the
    safety direction itself, and at alpha = pi/2 (where w collapses onto
    u1) the safety objective is interference-free at every order.
    """
    if d < 2:
        raise ConfigurationError(f"d must be >= 2 for a quadratic pair, got {d}")
    if not 0.0 <= alpha <= math.pi / 2 + 1e-12:
        raise ConfigurationError(f"alpha must lie in [0, pi/2], got {alpha}")

    rng = np.random.default_rng(seed)
    theta0 = rng.standard_normal(d)
    # u1 and w live in the rows of a_cap, so the only full-length array
    # beyond the family's own is f (w's row holds s f before w is formed)
    a_cap = np.zeros((2, d))
    u1, w = a_cap
    u1[0::2] = rng.standard_normal(u1[0::2].size)
    u1 /= norm(u1)
    f = np.zeros(d)
    f[1::2] = rng.standard_normal(f[1::2].size)
    f /= norm(f)

    c, s = _snap(math.cos(alpha)), _snap(math.sin(alpha))
    u2 = np.multiply(c, u1)  # u2 = c u1 + s f
    u2 += np.multiply(s, f, out=w)
    np.multiply(c, f, out=f)  # w = s u1 - c f
    np.subtract(np.multiply(s, u1, out=w), f, out=w)

    cap_residual, safety_residual = QUADRATIC_RESIDUALS
    b_cap = a_cap @ theta0 - np.array([cap_residual, 0.0])
    a_safe = u2[None, :]
    b_safe = a_safe @ theta0 - np.array([safety_residual])

    spec = ModelSpec("quadratic", (d,))
    kind = LossKind("squared_error")
    cap_system, safe_system = Batch(a_cap, b_cap), Batch(a_safe, b_safe)
    capability = DifferentiableTask("capability", spec, kind, cap_system, cap_system)
    safety = DifferentiableTask("safety", spec, kind, safe_system, safe_system)
    return TaskFamily(
        kind="quadratic_pair",
        seed=seed,
        theta0=theta0,
        capability_tasks=(capability,),
        tasks={"capability": capability, "safety": safety},
        safety_metric_task="safety",
        params={"d": d, "alpha": alpha, "cap_residual": cap_residual,
                "safety_residual": safety_residual},
    )


def regression_family(d: int, hidden: int, alpha: float, noise_sigma: float,
                      n_capability: int, n_safety: int, seed: int) -> TaskFamily:
    """Two-facet MLP regression with a safety teacher that conflicts on a
    shared feature block.

    Features split into four blocks: block a, block b, shared, safety-own.
    Capability dataset k activates block k plus the shared block and its
    teacher realizes the shared mapping s; the safety dataset activates its
    own block plus the shared block, and its teacher realizes
    cos(alpha) s + sin(alpha) s_perp there. At alpha = 0 the teachers agree
    on shared features and safety tuning leaves capability predictions
    alone (zeroed inputs give zero first-layer gradients); conflict grows
    monotonically with alpha.

    theta0 comes from a fixed, recorded budget of full-batch descent steps on
    the two capability sets (determinism over optimality).
    """
    if d < 8:
        raise ConfigurationError(f"d must be >= 8 for the regression family, got {d}")
    if not 0 <= noise_sigma < math.inf:
        raise ConfigurationError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    if not 0.0 <= alpha <= math.pi / 2 + 1e-12:
        raise ConfigurationError(f"alpha must lie in [0, pi/2], got {alpha}")
    if hidden < 1:
        raise ConfigurationError(f"hidden must be >= 1, got {hidden}")
    for key, n in (("n_capability", n_capability), ("n_safety", n_safety)):
        if n < 1:
            raise ConfigurationError(f"{key} must be >= 1, got {n}")

    rng = np.random.default_rng(seed)
    q = d // 4
    sl_a, sl_b = slice(0, q), slice(q, 2 * q)
    sl_sh, sl_own = slice(2 * q, 3 * q), slice(3 * q, d)
    n_own = d - 3 * q

    w_a = rng.standard_normal(q) / math.sqrt(q)
    w_b = rng.standard_normal(q) / math.sqrt(q)
    s_shared = rng.standard_normal(q)
    s_shared /= norm(s_shared)
    s_perp = rng.standard_normal(q)
    s_perp -= float(s_perp @ s_shared) * s_shared
    s_perp /= norm(s_perp)
    c, s = _snap(math.cos(alpha)), _snap(math.sin(alpha))
    s_safety = c * s_shared + s * s_perp
    w_own = _SAFETY_OWN_SCALE * rng.standard_normal(n_own) / math.sqrt(n_own)

    def draw(n, active, pieces):
        x = np.zeros((n, d))
        for sl in active:
            x[:, sl] = rng.standard_normal((n, x[:, sl].shape[1]))
        y = np.zeros(n)
        for sl, w in pieces:
            y += x[:, sl] @ w
        if noise_sigma > 0:
            y += noise_sigma * rng.standard_normal(n)
        return x, y

    spec = ModelSpec("mlp2", (d, hidden, 1))
    kind = LossKind("squared_error")

    def task(name, active, pieces, n_train):
        train = Batch(*draw(n_train, active, pieces))
        return DifferentiableTask(name, spec, kind, train, Batch(*draw(PROBE_ROWS, active, pieces)))

    cap_a = task("cap_a", (sl_a, sl_sh), ((sl_a, w_a), (sl_sh, s_shared)), n_capability)
    cap_b = task("cap_b", (sl_b, sl_sh), ((sl_b, w_b), (sl_sh, s_shared)), n_capability)
    safety = task("safety", (sl_own, sl_sh), ((sl_own, w_own), (sl_sh, s_safety)), n_safety)

    theta0 = _pretrain(_init_mlp(rng, d, hidden), cap_a, cap_b, REGRESSION_PRETRAIN, "regression")
    return TaskFamily(
        kind="regression_mlp",
        seed=seed,
        theta0=theta0,
        capability_tasks=(cap_a, cap_b),
        tasks={t.name: t for t in (cap_a, cap_b, safety)},
        safety_metric_task="safety",
        params={"d": d, "hidden": hidden, "alpha": alpha, "noise_sigma": noise_sigma,
                "n_capability": n_capability, "n_safety": n_safety,
                "pretrain_steps": REGRESSION_PRETRAIN[0], "pretrain_eta": REGRESSION_PRETRAIN[1]},
    )


def _init_mlp(rng, d, hidden):
    w1 = rng.standard_normal((hidden, d)) / math.sqrt(d)
    b1 = np.zeros(hidden)
    w2 = rng.standard_normal((1, hidden)) / math.sqrt(hidden)
    b2 = np.zeros(1)
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def _pretrain(theta, cap_a, cap_b, budget, label):
    """Full-batch descent on the mean of the two capability losses, in
    place on ``theta``, with the bytes of two ``gradient`` calls a step.

    theta and each facet's training set are checked, and the targets
    converted, once, before the first step (``models._fixed_batch_gradient``).
    No gradient is checked: a non-finite one leaves theta non-finite from
    then on, which the check after the last step reports.
    """
    steps, eta = budget
    grad_a, grad_b = (models._fixed_batch_gradient(t.spec, t.kind, theta, t.train)
                      for t in (cap_a, cap_b))
    for _ in range(steps):
        g = grad_a(theta)
        g += grad_b(theta)
        g *= eta * 0.5
        theta -= g
    if not all_finite(theta):
        raise NumericError(f"{label} pre-training diverged")
    return theta


def policy_family(context_dim: int, vocab: int, n_capability: int,
                  n_safety: int, seed: int) -> TaskFamily:
    """Linear softmax policy with a two-stage safety pipeline.

    The vocabulary splits into a "safe" half (refusal-style tokens) and a
    "content" half. Context coordinates split into four blocks: facet a,
    facet b, shared, safety-own. Capability facet k activates block k plus
    the shared block and its labels are the strongest content token of its
    teacher; the safety contexts activate the safety-own block plus the
    shared block (zero overlap with either facet region), so safety
    behaviour learned through shared coordinates spills into the capability
    regions while the safety-own block offers interference-free room.
    Stage 1 ("sft") is categorical NLL on safe labels; stage 2 ("dpo") is
    the pairwise preference loss with preferred = the safe label and
    rejected = the strongest content token. The dpo task's reference policy
    is theta0; the training loop trains each preference stage against a copy
    of the task whose reference is the stage-entry parameters.
    """
    if vocab < 4:
        raise ConfigurationError(f"vocab must be >= 4 for the policy family, got {vocab}")
    if context_dim < 4:
        raise ConfigurationError(f"context_dim must be >= 4 for the policy family, "
                                 f"got {context_dim}")
    for key, n in (("n_capability", n_capability), ("n_safety", n_safety)):
        if n < 1:
            raise ConfigurationError(f"{key} must be >= 1, got {n}")

    rng = np.random.default_rng(seed)
    n_safe_tokens = vocab // 2
    q = context_dim // 4
    sl_a, sl_b = slice(0, q), slice(q, 2 * q)
    sl_sh, sl_own = slice(2 * q, 3 * q), slice(3 * q, context_dim)
    teacher_a = rng.standard_normal((vocab, context_dim))
    teacher_b = rng.standard_normal((vocab, context_dim))
    teacher_s = rng.standard_normal((vocab, context_dim))

    def contexts(n, active):
        x = np.zeros((n, context_dim))
        for sl in active:
            x[:, sl] = rng.standard_normal((n, x[:, sl].shape[1]))
        return x

    spec = ModelSpec("softmax_policy", (context_dim, vocab))
    nll = LossKind("nll_sft")

    def sample_labels(x, teacher):
        # labels drawn from the teacher's softmax: the policy class contains
        # the exact optimum, so pre-training converges to a true minimum and
        # any safety-induced drift raises the probe loss
        z = x @ teacher.T
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        return (p.cumsum(axis=1) < rng.random((x.shape[0], 1))).sum(axis=1)

    def capability_task(name, teacher, block):
        xt = contexts(n_capability, (block, sl_sh))
        yt = sample_labels(xt, teacher)
        xp = contexts(PROBE_ROWS, (block, sl_sh))
        yp = sample_labels(xp, teacher)
        return DifferentiableTask(name, spec, nll, Batch(xt, yt), Batch(xp, yp))

    cap_a = capability_task("cap_a", teacher_a, sl_a)
    cap_b = capability_task("cap_b", teacher_b, sl_b)

    def safety_data(n):
        # safety contexts with each row's strongest safe and content tokens
        x = contexts(n, (sl_own, sl_sh))
        logits = x @ teacher_s.T
        return (x, np.argmax(logits[:, :n_safe_tokens], axis=1),
                n_safe_tokens + np.argmax(logits[:, n_safe_tokens:], axis=1))

    x, y, _ = safety_data(n_safety)
    xp, yp, _ = safety_data(PROBE_ROWS)
    sft = DifferentiableTask("sft", spec, nll, Batch(x, y), Batch(xp, yp))
    x, safe, content = safety_data(n_safety)
    dpo_train = Batch(x, np.column_stack([safe, content]))
    xp, safe, content = safety_data(PROBE_ROWS)

    theta0 = _pretrain(0.01 * rng.standard_normal(spec.param_dim), cap_a, cap_b,
                       POLICY_PRETRAIN, "policy")
    dpo = DifferentiableTask(
        "dpo", spec, LossKind("dpo_pairwise", beta=0.2), dpo_train,
        Batch(xp, np.column_stack([safe, content]), ref_params=theta0.copy()))
    return TaskFamily(
        kind="policy_sft_dpo",
        seed=seed,
        theta0=theta0,
        capability_tasks=(cap_a, cap_b),
        tasks={t.name: t for t in (cap_a, cap_b, sft, dpo)},
        safety_metric_task="sft",
        params={"context_dim": context_dim, "vocab": vocab,
                "n_capability": n_capability, "n_safety": n_safety,
                "pretrain_steps": POLICY_PRETRAIN[0], "pretrain_eta": POLICY_PRETRAIN[1]},
    )


# kind -> constructor: the one registry of family kinds and their parameters
FAMILIES = {
    "quadratic_pair": quadratic_family,
    "regression_mlp": regression_family,
    "policy_sft_dpo": policy_family,
}


def family_schema(kind: str) -> dict[str, type]:
    """Config keys of a family kind, each required: name -> type, read off
    the constructor's signature (every parameter but ``seed``)."""
    if kind not in FAMILIES:
        raise ConfigurationError(f"unknown family kind {kind!r}")
    constructor = FAMILIES[kind]
    types = typing.get_type_hints(constructor)
    return {name: types[name] for name in inspect.signature(constructor).parameters
            if name != "seed"}


def read_family(kind: str, seed, params: Mapping[str, object]) -> tuple[int, dict]:
    """``(seed, params)`` as the ``kind`` constructor takes them, for config
    files and :func:`build_family` alike: every key of ``family_schema(kind)``
    and no other, each read as its key's type and equal to what it reads as
    (12.0 reads as 12; 12.5 is rejected), and a non-negative integer seed
    (``np.int64(3)`` reads as 3). All come back plain ``int``/``float``, so
    equal families share one fingerprint. A rejection is a
    :class:`ConfigurationError` naming its key first or quoting it."""
    schema = family_schema(kind)
    unknown = [key for key in params if key not in schema]
    if unknown:
        raise ConfigurationError(f"unknown key {unknown[0]!r} for family {kind}")
    missing = [key for key in schema if key not in params]
    if missing:
        raise ConfigurationError(f"family {kind} requires keys {missing}")
    if not isinstance(seed, numbers.Integral):
        raise ConfigurationError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    read = {}
    for key, type_ in schema.items():
        try:
            read[key] = type_(params[key])
        except (TypeError, ValueError, OverflowError):
            pass
        if key not in read or read[key] != params[key]:
            raise ConfigurationError(f"{key} = {params[key]!r} does not convert to "
                                     f"{type_.__name__}")
    return int(seed), read


def build_family(kind: str, seed: int, **params) -> TaskFamily:
    """The family of a kind, seed and parameters as :func:`read_family` reads
    them, so the constructor gets plain ``int``/``float`` values and an
    ``int`` seed, and a numpy-typed call builds the plain call's family and
    fingerprint. What the reader rejects raises :class:`ConfigurationError`."""
    seed, params = read_family(kind, seed, params)
    return FAMILIES[kind](seed=seed, **params)
