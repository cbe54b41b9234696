"""Small differentiable models covering both objective families.

Likelihood-style losses (squared error on a quadratic system and on a
two-layer tanh MLP, categorical NLL for a linear softmax policy) and a
pairwise preference loss against a frozen reference policy.
All gradients are closed-form or hand-backpropagated; the independent
finite-difference cross-check lives in :mod:`orthoproj.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import DimensionError, NumericError, ConfigurationError
from .linalg import all_finite, as_vector

__all__ = ["ModelSpec", "LossKind", "Batch", "loss", "gradient", "SUPPORTED_PAIRS"]

# The model kinds and the losses each accepts. The quadratic system is a
# single analytic objective, the rest are per-example batch means.
SUPPORTED_PAIRS = {
    "quadratic": ("squared_error",),
    "mlp2": ("squared_error",),
    "softmax_policy": ("nll_sft", "dpo_pairwise"),
}
LOSS_TAGS = tuple(tag for tags in SUPPORTED_PAIRS.values() for tag in tags)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor; the parameter dimension follows from it.
    mlp2 is (inputs, hidden, outputs) with a tanh hidden layer."""

    kind: str
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in SUPPORTED_PAIRS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if any(d < 1 for d in dims):
            raise ConfigurationError(f"dims must be positive, got {dims}")
        arity = {"quadratic": 1, "mlp2": 3, "softmax_policy": 2}[self.kind]
        if len(dims) != arity:
            raise ConfigurationError(f"{self.kind} needs {arity} dims, got {dims}")

    @property
    def param_dim(self) -> int:
        if self.kind == "quadratic":
            return self.dims[0]
        if self.kind == "mlp2":
            i, h, o = self.dims
            return h * i + h + o * h + o
        c, v = self.dims  # softmax_policy: one weight row per vocabulary token
        return v * c


@dataclass(frozen=True)
class LossKind:
    """Loss tag plus the preference temperature used by dpo_pairwise."""

    tag: str
    beta: float = 0.2

    def __post_init__(self):
        if self.tag not in LOSS_TAGS:
            raise ConfigurationError(f"unknown loss tag {self.tag!r}")
        if self.tag == "dpo_pairwise" and not self.beta > 0:
            raise ConfigurationError(f"beta must be positive for dpo_pairwise, got {self.beta}")


@dataclass(frozen=True, eq=False)
class Batch:
    """One evaluation unit, valid by construction.

    inputs:     (n, feature_dim) rows, or the full system matrix A for the
                quadratic kind.
    targets:    per-row targets (regression values, or integer labels in
                [0, vocab) for nll_sft); the right-hand side b for
                quadratic; for dpo_pairwise, an (n, 2) int array holding
                each row's (preferred, rejected) tokens in [0, vocab), so
                a preference pair is one row of the batch.
    ref_params: dpo_pairwise only, frozen reference-policy parameters.

    A malformed batch raises when it is built: inputs must be 2-D with at
    least one row and finite (they are stored as float64), and a batch
    with ref_params must have (rows, 2) targets and a finite 1-D
    ref_params (stored as float64). Checks that need the model (parameter
    length, which fields the loss needs, tokens in the vocabulary) run in
    :func:`loss` and :func:`gradient`. :meth:`rows` takes rows of a
    valid batch without checking them again.

    A batch is read, never written, and treated as immutable: a
    dpo_pairwise batch computes the reference policy's per-pair margin on
    first use and keeps it (:attr:`ref_margin`). A task's training set and
    probe are batches; a dpo_pairwise training set holds no ref_params.
    """

    inputs: np.ndarray
    targets: np.ndarray | None = None
    ref_params: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        if x.ndim != 2:
            raise DimensionError(f"batch inputs must be 2-D, got shape {x.shape}")
        if x.shape[0] < 1:
            raise DimensionError("batch must contain at least one row")
        # a mask, not all_finite's BLAS sum, which over 10^4 entries wakes
        # OpenBLAS threads that then spin for tens of ms
        if not np.isfinite(x).all():
            raise NumericError("batch inputs contain non-finite entries")
        object.__setattr__(self, "inputs", x)
        if self.ref_params is not None:
            t = np.asarray(self.targets)
            if t.shape != (x.shape[0], 2):
                raise DimensionError(f"preference targets must be ({x.shape[0]}, 2), "
                                     f"got shape {t.shape}")
            object.__setattr__(self, "targets", t)
            object.__setattr__(self, "ref_params", as_vector(self.ref_params, "ref_params"))

    def rows(self, idx: np.ndarray, ref_params: np.ndarray | None = None) -> Batch:
        """The batch of rows ``idx`` of this one (a row may repeat), carrying
        ``ref_params``; its ``inputs`` and ``targets`` are fresh copies.

        Valid by construction, so no check runs again: rows of a valid
        batch's finite float64 inputs are finite, and rows of (n, 2)
        targets are (rows, 2). ``ref_params`` must be ``None`` or a
        validated batch's own ``ref_params``, and a batch given one must
        have (n, 2) targets, as a dpo_pairwise task's training set does
        (see :meth:`~orthoproj.tasks.DifferentiableTask.sample_batch`).
        """
        batch = object.__new__(Batch)
        batch.__dict__.update(inputs=self.inputs.take(idx, axis=0),
                              targets=self.targets.take(idx, axis=0), ref_params=ref_params)
        return batch

    @cached_property
    def ref_margin(self) -> np.ndarray:
        """dpo_pairwise: ``log pi_ref(y_w|x) - log pi_ref(y_l|x)`` per pair,
        computed on first use and kept, since the reference is frozen. Read
        it only after checking that ``ref_params`` fits the model."""
        x = self.inputs
        margin = _log_prob_margin(x @ self.ref_params.reshape(-1, x.shape[1]).T, self.targets)
        margin.flags.writeable = False
        return margin


def _check(spec: ModelSpec, kind: LossKind, theta, batch: Batch) -> np.ndarray:
    if kind.tag not in SUPPORTED_PAIRS[spec.kind]:
        raise ConfigurationError(f"loss {kind.tag!r} is not defined for model {spec.kind!r}")
    th = as_vector(theta, "theta")
    if th.size != spec.param_dim:
        raise DimensionError(f"theta has length {th.size}, model needs {spec.param_dim}")
    if kind.tag == "dpo_pairwise":
        if batch.ref_params is None:
            raise ConfigurationError("dpo_pairwise batches need ref_params")
    elif batch.ref_params is not None:
        raise ConfigurationError("ref_params is only meaningful for dpo_pairwise")
    return th


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NumericError(f"non-finite {what}")
    return value


def _finite_vec(v: np.ndarray, what: str) -> np.ndarray:
    if not all_finite(v):
        raise NumericError(f"non-finite {what}")
    return v


# ---------------------------------------------------------------------------
# forward passes / gradients per kind
# ---------------------------------------------------------------------------

def _unpack_mlp(theta: np.ndarray, dims: tuple[int, int, int]):
    i, h, o = dims
    k = 0
    w1 = theta[k:k + h * i].reshape(h, i); k += h * i
    b1 = theta[k:k + h]; k += h
    w2 = theta[k:k + o * h].reshape(o, h); k += o * h
    b2 = theta[k:k + o]
    return w1, b1, w2, b2


def _mlp_forward(weights, x):
    """Hidden activations and outputs, each formed in its own fresh array,
    for the ``_unpack_mlp`` views of theta."""
    w1, b1, w2, b2 = weights
    h = x @ w1.T
    h += b1
    np.tanh(h, out=h)
    y = h @ w2.T
    y += b2
    return h, y


def _row_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=1, keepdims=True)``, byte for byte, in one pass.

    numpy reduces a short row one row at a time; on a contiguous copy of the
    transpose it takes the maximum down the columns, across all rows at
    once. A maximum is the same in any order except for the sign of a zero
    (the maximum of 0.0 and -0.0 is whichever comes first), so when some row
    maximum is zero those rows take numpy's own row reduction, whose order
    depends on the layout of ``z``. A NaN in a row gives NaN either way.
    """
    m = np.maximum.reduce(np.ascontiguousarray(z.T), axis=0)
    zero = m == 0.0
    if zero.any():
        m[zero] = z.max(axis=1)[zero]
    return m[:, None]


def _softmax_parts(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shifted logits and the (n, 1) column of row log-normalizers; the
    log-probabilities are ``shifted - lse``. The logits ``z`` must be a
    fresh array: they are shifted in place and returned.

    The row sum is taken over the C-contiguous rows of ``exp(shifted)``
    as it stands: numpy sums such rows pairwise, and a transposed layout or
    the other axis would round differently.
    """
    z -= _row_max(z)
    return z, np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))


def _log_prob_margin(z, targets) -> np.ndarray:
    """``lp[p, w_p] - lp[p, l_p]`` for ``lp = shifted - lse`` and row p's
    (preferred, rejected) tokens ``targets[p] = (w_p, l_p)``, normalizing
    only the two gathered logits of each row (each goes through the same
    subtraction as in the full matrix)."""
    shifted, lse = _softmax_parts(z)
    flat, lse = shifted.reshape(-1), lse[:, 0]
    return ((flat[_label_cells(shifted.shape, targets[:, 0])] - lse)
            - (flat[_label_cells(shifted.shape, targets[:, 1])] - lse))


def _label_cells(shape: tuple[int, int], labels) -> np.ndarray:
    """Flat indices of each row's label in a C-ordered array z of ``shape``
    (n, v), one index array where ``z[rows, labels]`` builds two; a label
    outside [0, v) raises ``ValueError``, labels that are not integers
    ``ConfigurationError``, and labels that are not one per row (n,)
    ``DimensionError``."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ConfigurationError(f"targets must be integer labels or tokens, "
                                 f"got dtype {labels.dtype}")
    n = shape[0]
    if labels.shape != (n,):
        raise DimensionError(f"batch targets must hold one label or token per row, "
                             f"shape ({n},), got shape {labels.shape}")
    return np.ravel_multi_index((np.arange(n), labels), shape)


def _values(batch: Batch, shape: tuple[int, ...]) -> np.ndarray:
    """The batch's real-valued targets as float64 in ``shape``: a quadratic
    system's (rows,), or mlp2's (rows, outputs), which one output may also
    give as (rows,). Any other shape raises ``DimensionError``, even one
    holding as many values, which would pair targets with the wrong rows;
    only shapes are compared."""
    t = np.asarray(batch.targets, dtype=np.float64)
    single = shape[1:] == (1,)
    if t.shape != shape and not (single and t.shape == shape[:1]):
        want = f"{shape} or {shape[:1]}" if single else str(shape)
        raise DimensionError(f"batch targets must have shape {want}, got shape {t.shape}")
    return t.reshape(shape)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` where x >= 0 and ``exp(x) / (1 + exp(x))``
    elsewhere, so no exp overflows; both take ``exp(-|x|)``."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _dpo_margins(spec, kind, theta, batch):
    """beta * (policy margin - reference margin) per row of the batch. Only
    the policy forward runs on every call; the reference margin is the
    batch's cached :attr:`Batch.ref_margin`."""
    c, v = spec.dims
    x, ref = batch.inputs, batch.ref_params
    if ref.size != spec.param_dim:
        raise DimensionError(f"ref_params has length {ref.size}, model needs {spec.param_dim}")
    pol_margin = _log_prob_margin(x @ theta.reshape(v, c).T, batch.targets)
    return kind.beta * (pol_margin - batch.ref_margin)


def _mlp_gradient(dims, theta, x, targets) -> np.ndarray:
    """The mean squared-error gradient of the mlp2 at theta on the rows x,
    whose (rows, outputs) ``targets`` are float64, in a fresh vector;
    neither theta nor the result is checked."""
    weights = _unpack_mlp(theta, dims)
    h, d_y = _mlp_forward(weights, x)
    d_y -= targets
    d_y /= x.shape[0]
    # each block of the gradient is written straight into its slot of g
    g = np.empty(theta.size)
    d_w1, d_b1, d_w2, d_b2 = _unpack_mlp(g, dims)
    np.matmul(d_y.T, h, out=d_w2)
    np.add.reduce(d_y, axis=0, out=d_b2)
    h *= h
    np.subtract(1.0, h, out=h)  # tanh' = 1 - h*h
    # for one output d_y @ w2 is an outer product, whose entries a
    # multiply forms as a K = 1 gemm does, except that gemm adds each to
    # +0.0; d_z1 reaches g only through a matmul and an add reduction,
    # which start from +0.0 too, so the sign of a zero never shows
    w2 = weights[2]
    d_z1 = np.multiply(d_y, w2) if w2.shape[0] == 1 else d_y @ w2
    d_z1 *= h
    np.matmul(d_z1.T, x, out=d_w1)
    np.add.reduce(d_z1, axis=0, out=d_b1)
    return g


def _nll_gradient(dims, theta, x, cells) -> np.ndarray:
    """The mean categorical-NLL gradient of the softmax policy at theta on
    the rows x, whose labels sit at the flat indices ``cells`` of the
    (rows, vocab) logits, in a fresh vector; neither theta nor the result
    is checked."""
    c, v = dims
    p, lse = _softmax_parts(x @ theta.reshape(v, c).T)
    p -= lse
    np.exp(p, out=p)
    p.reshape(-1)[cells] -= 1.0
    g = (p.T @ x).ravel()
    g /= x.shape[0]
    return g


def _fixed_batch_gradient(spec: ModelSpec, kind: LossKind, theta, batch: Batch):
    """``grad(th)``: the mean gradient of an mlp2 or nll_sft model at th on
    ``batch``, with the bytes of :func:`gradient` at th.

    theta, the loss kind and the batch's targets are checked here, once,
    and the targets are converted once: ``grad`` checks neither its th,
    which must keep theta's length, nor the gradient it returns, so a
    caller that steps on it checks the result itself.
    """
    _check(spec, kind, theta, batch)
    x = batch.inputs
    if spec.kind == "mlp2":
        return partial(_mlp_gradient, spec.dims, x=x,
                       targets=_values(batch, (len(x), spec.dims[2])))
    return partial(_nll_gradient, spec.dims, x=x,
                   cells=_label_cells((len(x), spec.dims[1]), batch.targets))


def loss(spec: ModelSpec, kind: LossKind, theta, batch: Batch) -> float:
    """Scalar loss of the model on the batch.

    Per-example kinds return the batch mean. The quadratic kind is the single
    analytic objective 0.5 * ||A theta - b||^2 with A = inputs, b = targets.
    dpo_pairwise returns mean_p -log sigmoid(margin_p) where the margin is
    beta * ((log pi(y_w|x) - log pi(y_l|x)) - (same under the reference)).
    """
    th = _check(spec, kind, theta, batch)
    x = batch.inputs

    if spec.kind == "quadratic":
        r = x @ th
        r -= _values(batch, r.shape)
        r *= r
        return _finite(0.5 * float(np.add.reduce(r, axis=None)), "quadratic loss")

    if spec.kind == "mlp2":
        _, diff = _mlp_forward(_unpack_mlp(th, spec.dims), x)
        diff -= _values(batch, diff.shape)
        diff *= diff
        return _finite(float(np.add.reduce(diff, axis=None)) / (2.0 * x.shape[0]), "mlp loss")

    # softmax_policy
    c, v = spec.dims
    if kind.tag == "nll_sft":
        shifted, lse = _softmax_parts(x @ th.reshape(v, c).T)
        lp = shifted.reshape(-1)[_label_cells(shifted.shape, batch.targets)] - lse[:, 0]
        return _finite(-(float(np.add.reduce(lp, axis=None)) / lp.size), "nll loss")

    margins = _dpo_margins(spec, kind, th, batch)
    # -log sigmoid(m) == softplus(-m)
    return _finite(float(np.add.reduce(np.logaddexp(0.0, -margins), axis=None)) / margins.size,
                   "dpo loss")


def gradient(spec: ModelSpec, kind: LossKind, theta, batch: Batch) -> np.ndarray:
    """Exact analytic gradient of :func:`loss` with respect to theta."""
    th = _check(spec, kind, theta, batch)
    x = batch.inputs

    if spec.kind == "quadratic":
        r = x @ th
        r -= _values(batch, r.shape)
        # both forms give the bytes of x.T @ r; matmul is slow for one row
        # and np.dot for more
        g = np.dot(r, x) if x.shape[0] == 1 else x.T @ r
        return _finite_vec(g, "quadratic gradient")

    if spec.kind == "mlp2":
        g = _mlp_gradient(spec.dims, th, x, _values(batch, (len(x), spec.dims[2])))
        return _finite_vec(g, "mlp gradient")

    c, v = spec.dims
    if kind.tag == "nll_sft":
        g = _nll_gradient(spec.dims, th, x, _label_cells((len(x), v), batch.targets))
        return _finite_vec(g, "nll gradient")

    margins = _dpo_margins(spec, kind, th, batch)
    n = margins.shape[0]
    # per row: d(-log sigmoid(m))/dW = -sigmoid(-m) * beta * (e_w - e_l) x^T
    coef = -_sigmoid(-margins) * kind.beta / n
    token_weights = np.zeros((n, v))
    flat = token_weights.reshape(-1)  # each statement writes each cell at most once
    flat[_label_cells(token_weights.shape, batch.targets[:, 0])] += coef
    flat[_label_cells(token_weights.shape, batch.targets[:, 1])] += -coef
    return _finite_vec((token_weights.T @ x).ravel(), "dpo gradient")
