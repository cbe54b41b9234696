import contextlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoproj import models, tasks
from orthoproj.config import DEFAULTS
from orthoproj.errors import ConfigurationError, DimensionError, NumericError
from orthoproj.linalg import BLOCK
from orthoproj.models import (SUPPORTED_PAIRS, Batch, LossKind, ModelSpec, _row_max,
                              _sigmoid, gradient, loss)
from orthoproj.verify import _fd_cases

SE = LossKind("squared_error")


@contextlib.contextmanager
def numpy_error_state(name):
    """numpy's default error state with its warnings ignored, every floating
    point error raised, or the default state with warnings as errors."""
    with warnings.catch_warnings():
        if name == "raise":
            with np.errstate(all="raise"):
                yield
            return
        warnings.simplefilter("error" if name == "warnings as errors" else "ignore")
        with np.errstate(divide="warn", over="warn", invalid="warn", under="ignore"):
            yield


def identity_quadratic(d=2):
    return ModelSpec("quadratic", (d,)), Batch(np.eye(d), np.zeros(d))


class TestQuadratic:
    def test_hand_computed_loss(self):
        spec, batch = identity_quadratic()
        assert loss(spec, SE, [3.0, 4.0], batch) == 12.5

    def test_gradient_closed_form(self):
        spec, batch = identity_quadratic()
        np.testing.assert_array_equal(gradient(spec, SE, [3.0, 4.0], batch), [3.0, 4.0])

    def test_general_system(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        theta = rng.standard_normal(4)
        r = a @ theta - b
        spec = ModelSpec("quadratic", (4,))
        assert loss(spec, SE, theta, Batch(a, b)) == pytest.approx(0.5 * r @ r, rel=1e-15)
        np.testing.assert_allclose(gradient(spec, SE, theta, Batch(a, b)), a.T @ r, rtol=1e-14)


class TestMlp2:
    def test_forward_matches_independent_reimplementation(self):
        rng = np.random.default_rng(1)
        spec = ModelSpec("mlp2", (4, 8, 1))
        theta = 0.5 * rng.standard_normal(spec.param_dim)
        x = rng.standard_normal((16, 4))
        y = rng.standard_normal(16)

        # straightforward re-implementation, written from the architecture
        w1 = theta[:32].reshape(8, 4)
        b1 = theta[32:40]
        w2 = theta[40:48].reshape(1, 8)
        b2 = theta[48:]
        preds = np.tanh(x @ w1.T + b1) @ w2.T + b2
        expected = float(((preds.ravel() - y) ** 2).sum()) / 32.0

        got = loss(spec, SE, theta, Batch(x, y))
        assert abs(got - expected) <= 1e-12

    def test_directional_derivative(self):
        rng = np.random.default_rng(2)
        spec = ModelSpec("mlp2", (4, 6, 2))
        theta = 0.5 * rng.standard_normal(spec.param_dim)
        batch = Batch(rng.standard_normal((12, 4)), rng.standard_normal((12, 2)))
        v = rng.standard_normal(spec.param_dim)
        v /= np.linalg.norm(v)
        h = 1e-5
        fd = (loss(spec, SE, theta + h * v, batch) - loss(spec, SE, theta - h * v, batch)) / (2 * h)
        analytic = float(gradient(spec, SE, theta, batch) @ v)
        assert abs(fd - analytic) <= 1e-4 * max(abs(fd), abs(analytic), 1e-8)


class TestDpoPairwise:
    def _setup(self, seed=3, n_pairs=6, match_ref=True):
        rng = np.random.default_rng(seed)
        spec = ModelSpec("softmax_policy", (5, 8))
        theta = rng.standard_normal(spec.param_dim)
        ref = theta.copy() if match_ref else rng.standard_normal(spec.param_dim)
        x = rng.standard_normal((n_pairs, 5))
        tokens = np.column_stack([rng.integers(0, 4, n_pairs), 4 + rng.integers(0, 4, n_pairs)])
        kind = LossKind("dpo_pairwise", beta=0.2)
        return spec, kind, theta, Batch(x, tokens, ref_params=ref)

    def test_zero_margin_loss_is_log2(self):
        spec, kind, theta, batch = self._setup()
        assert loss(spec, kind, theta, batch) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_zero_margin_gradient_formula(self):
        spec, kind, theta, batch = self._setup()
        got = gradient(spec, kind, theta, batch)
        # at zero margin sigmoid(0) = 1/2, so the gradient collapses to
        # -(beta/2) * mean_p (e_w - e_l) x_p^T
        c, v = 5, 8
        expected = np.zeros((v, c))
        n = batch.targets.shape[0]
        for x, (pref, rej) in zip(batch.inputs, batch.targets):
            expected[pref] -= 0.2 / 2.0 / n * x
            expected[rej] += 0.2 / 2.0 / n * x
        np.testing.assert_allclose(got, expected.ravel(), atol=1e-15)

    def test_swap_symmetry(self):
        spec, kind, theta, batch = self._setup(match_ref=False)
        swapped = Batch(batch.inputs, batch.targets[:, ::-1], ref_params=batch.ref_params)
        margins = []
        for b in (batch, swapped):
            # recover the mean margin via the loss: loss = mean softplus(-m)
            margins.append(loss(spec, kind, theta, b))
        # swapping preferred/rejected negates every margin, so the swapped
        # loss equals mean softplus(+m); verify against direct computation
        from orthoproj.models import _dpo_margins
        m = _dpo_margins(spec, kind, np.asarray(theta, dtype=np.float64), batch)
        assert margins[0] == pytest.approx(float(np.mean(np.logaddexp(0.0, -m))), abs=1e-15)
        assert margins[1] == pytest.approx(float(np.mean(np.logaddexp(0.0, m))), abs=1e-15)

    def test_log2_independent_of_data(self):
        for seed in (10, 11):
            spec, kind, theta, batch = self._setup(seed=seed, n_pairs=9)
            assert loss(spec, kind, theta, batch) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_beta_validation(self):
        with pytest.raises(ConfigurationError):
            LossKind("dpo_pairwise", beta=0.0)

    def test_requires_ref_params(self):
        spec, kind, theta, batch = self._setup()
        with pytest.raises(ConfigurationError):
            loss(spec, kind, theta, Batch(batch.inputs, batch.targets))


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 5e-324, np.nan])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 600), st.integers(1, 17), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["C", "F", "reversed columns"]))
def test_row_max_matches_numpy_bytewise(n, c, seed, layout):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, c)) * 10.0 ** rng.choice([0, 150, 300], (n, c))
    if rng.random() < 0.5:
        z = -np.abs(z)  # so that a signed zero is often the row maximum
    special = rng.random((n, c)) < rng.random()
    z[special] = rng.choice(_SPECIALS[:-1] if rng.random() < 0.5 else _SPECIALS,
                            special.sum())
    z = {"C": z, "F": np.asfortranarray(z), "reversed columns": z[:, ::-1]}[layout]
    got, want = _row_max(z), z.max(axis=1, keepdims=True)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()  # the sign of a zero too


def _masked_sigmoid(x):
    """The reference: each sign's exp through a boolean-mask gather."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_the_masked_formula_bytewise():
    rng = np.random.default_rng(0)
    draws = rng.standard_normal(70_000) * 10.0 ** rng.uniform(-300, 5, 70_000)
    tiny = np.finfo(np.float64).tiny
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, tiny / 3, -tiny / 3,
                      745.0, -745.0, 800.0, -800.0, 1e308, -1e308])
    x = np.concatenate([edges, draws])
    assert _sigmoid(x).tobytes() == _masked_sigmoid(x).tobytes()
    assert np.isnan(_sigmoid(np.array([np.nan]))).all()  # only the sign of a nan may differ


def _log_softmax_oracle(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class TestSoftmaxOracle:
    """The softmax-policy losses and gradients are byte-identical to the
    formulas that normalize every token of a row-by-row maximum."""

    @staticmethod
    def _inputs(seed, n, scale):
        rng = np.random.default_rng(seed)
        c, v = 8, 10
        theta = scale * rng.standard_normal(v * c)
        x = rng.standard_normal((n, c))
        return ModelSpec("softmax_policy", (c, v)), rng, theta, x

    @pytest.mark.parametrize("seed,n,scale", [(0, 1, 1.0), (1, 32, 1.0), (2, 512, 1.0),
                                              (3, 200, 0.0), (4, 64, 40.0), (5, 1, 1e-160),
                                              (6, 64, 1e150), (7, 200, 1e-160), (8, 200, 1e150)])
    def test_nll_sft(self, seed, n, scale):
        # the reference subtracts each row's label through a (row, label) index
        spec, rng, theta, x = self._inputs(seed, n, scale)
        labels = rng.integers(0, 10, n)
        batch = Batch(x, labels)
        kind = LossKind("nll_sft")
        lp = _log_softmax_oracle(x @ theta.reshape(10, 8).T)
        want_loss = -float(np.mean(lp[np.arange(n), labels]))
        p = np.exp(lp)
        p[np.arange(n), labels] -= 1.0
        want_grad = (p.T @ x).ravel() / n
        assert loss(spec, kind, theta, batch) == want_loss
        assert gradient(spec, kind, theta, batch).tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("seed,n,scale", [(0, 1, 1.0), (1, 32, 1.0), (2, 512, 1.0),
                                              (3, 200, 0.0), (4, 64, 40.0)])
    def test_dpo_pairwise(self, seed, n, scale):
        # the batch's rows are drawn from x with repeats, as a sampled batch's are
        spec, rng, theta, x = self._inputs(seed, n, scale)
        ref = scale * rng.standard_normal(theta.size)
        rows, pref, rej = rng.integers(0, n, n), rng.integers(0, 10, n), rng.integers(0, 10, n)
        x = x[rows]
        batch = Batch(x, np.column_stack([pref, rej]), ref_params=ref)
        kind = LossKind("dpo_pairwise", beta=0.2)
        pair = np.arange(n)
        lp_pol = _log_softmax_oracle(x @ theta.reshape(10, 8).T)
        lp_ref = _log_softmax_oracle(x @ ref.reshape(10, 8).T)
        margins = kind.beta * ((lp_pol[pair, pref] - lp_pol[pair, rej])
                               - (lp_ref[pair, pref] - lp_ref[pair, rej]))
        want_loss = float(np.mean(np.logaddexp(0.0, -margins)))
        coef = -_sigmoid(-margins) * kind.beta / n
        weights = np.zeros((n, 10))
        np.add.at(weights, (pair, pref), coef)
        np.add.at(weights, (pair, rej), -coef)
        want_grad = (weights.T @ x).ravel()
        assert loss(spec, kind, theta, batch) == want_loss
        assert gradient(spec, kind, theta, batch).tobytes() == want_grad.tobytes()


def _mlp_oracle(theta, dims, x, t):
    """mlp2 loss and gradient as plain out-of-place expressions."""
    i, hdim, o = dims
    w1 = theta[:hdim * i].reshape(hdim, i)
    b1 = theta[hdim * i:hdim * i + hdim]
    w2 = theta[hdim * i + hdim:hdim * i + hdim + o * hdim].reshape(o, hdim)
    b2 = theta[hdim * i + hdim + o * hdim:]
    h = np.tanh(x @ w1.T + b1)
    y_hat = h @ w2.T + b2
    t = t.reshape(y_hat.shape)
    n = x.shape[0]
    diff = y_hat - t
    want_loss = float(np.sum(diff * diff)) / (2.0 * n)
    d_y = (y_hat - t) / n
    d_w2 = d_y.T @ h
    d_b2 = d_y.sum(axis=0)
    d_z1 = (d_y @ w2) * (1.0 - h * h)
    want_grad = np.concatenate([(d_z1.T @ x).ravel(), d_z1.sum(axis=0), d_w2.ravel(), d_b2])
    return want_loss, want_grad


class TestMlpOracle:
    """The in-place mlp2 passes are byte-identical to the out-of-place
    formulas, which concatenate the four gradient blocks and form d_y @ w2
    as a matmul: a K = 1 gemm for one output, whose zero entries are +0.0."""

    @pytest.mark.parametrize("n", [1, 64, 200, 512])
    # zero, normal, tanh-saturating, weights whose products (near 1e-320)
    # underflow, and units so saturated that their derivative is exactly zero
    @pytest.mark.parametrize("scale", [0.0, 0.5, 30.0, 1e-160, 1e150])
    @pytest.mark.parametrize("dims", [(16, 12, 1), (5, 7, 3)])
    def test_loss_and_gradient(self, n, scale, dims):
        rng = np.random.default_rng(n + int(scale) + dims[2])
        spec = ModelSpec("mlp2", dims)
        theta = scale * rng.standard_normal(spec.param_dim)
        x = rng.standard_normal((n, dims[0]))
        t = rng.standard_normal((n, dims[2])) if dims[2] > 1 else rng.standard_normal(n)
        want_loss, want_grad = _mlp_oracle(theta, dims, x, t)
        batch = Batch(x, t)
        assert loss(spec, SE, theta, batch) == want_loss
        assert gradient(spec, SE, theta, batch).tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [3, 8193, 100000])
def test_quadratic_gradient_matches_matmul_bytewise(rows, d):
    rng = np.random.default_rng(rows * d)
    a = rng.standard_normal((rows, d))
    b = rng.standard_normal(rows)
    theta = rng.standard_normal(d)
    r = a @ theta - b
    got = gradient(ModelSpec("quadratic", (d,)), SE, theta, Batch(a, b))
    assert got.tobytes() == (a.T @ r).tobytes()


_GRADIENT_BYTES_SCRIPT = """
import numpy as np
from orthoproj.models import Batch, LossKind, ModelSpec, gradient
for rows in (1, 2, 3, 4):
    for d in (3, 8193, 100000):
        rng = np.random.default_rng(rows * d)
        a = rng.standard_normal((rows, d))
        b = rng.standard_normal(rows)
        theta = rng.standard_normal(d)
        got = gradient(ModelSpec("quadratic", (d,)), LossKind("squared_error"), theta, Batch(a, b))
        want = (a.T @ (a @ theta - b)).tobytes()
        print(rows, d, got.tobytes() == want, np.dot(a @ theta - b, a).tobytes() == want)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_quadratic_gradient_bytes_at_each_blas_thread_count(threads):
    # the thread count is fixed before numpy loads, so it needs a fresh process;
    # both forms the gradient chooses between must give the matmul bytes
    src = str(Path(models.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", _GRADIENT_BYTES_SCRIPT], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 12
    assert [line for line in lines if not line.endswith("True True")] == []


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@pytest.mark.parametrize("pair", sorted((k, tag) for k, tags in SUPPORTED_PAIRS.items()
                                        for tag in tags))
def test_batches_are_never_written(pair):
    """loss and gradient only read a batch: read-only arrays work twice over."""
    rng = np.random.default_rng(7)
    model, tag = pair
    spec = ModelSpec(model, {"quadratic": (6,), "mlp2": (4, 5, 2),
                             "softmax_policy": (4, 6)}[model])
    kind = LossKind(tag)
    n = 8
    if model == "quadratic":
        x, t = _read_only(rng.standard_normal((2, 6)), rng.standard_normal(2))
        batch = Batch(x, t)
    elif model == "mlp2":
        x, t = _read_only(rng.standard_normal((n, 4)), rng.standard_normal((n, 2)))
        batch = Batch(x, t)
    elif tag == "nll_sft":
        x, t = _read_only(rng.standard_normal((n, 4)), rng.integers(0, 6, n))
        batch = Batch(x, t)
    else:
        tokens = np.column_stack([rng.integers(0, 6, n), rng.integers(0, 6, n)])
        x, tokens, ref = _read_only(rng.standard_normal((n, 4)), tokens,
                                    rng.standard_normal(spec.param_dim))
        batch = Batch(x, tokens, ref_params=ref)
    before = [np.array(a) for a in (batch.inputs, batch.targets, batch.ref_params)]
    theta = rng.standard_normal(spec.param_dim)
    first = loss(spec, kind, theta, batch), gradient(spec, kind, theta, batch).tobytes()
    assert (loss(spec, kind, theta, batch),
            gradient(spec, kind, theta, batch).tobytes()) == first
    after = [np.array(a) for a in (batch.inputs, batch.targets, batch.ref_params)]
    assert [a.tobytes() for a in after] == [a.tobytes() for a in before]


class TestReferenceMargin:
    def _batch(self, n=6, ref_size=40):
        rng = np.random.default_rng(5)
        tokens = np.column_stack([rng.integers(0, 8, n), rng.integers(0, 8, n)])
        return Batch(rng.standard_normal((n, 5)), tokens, ref_params=rng.standard_normal(ref_size))

    def test_computed_once_per_batch_and_read_only(self, monkeypatch):
        import orthoproj.models as models
        calls = []
        original = models._log_prob_margin
        monkeypatch.setattr(models, "_log_prob_margin",
                            lambda *a: calls.append(1) or original(*a))
        spec, kind = ModelSpec("softmax_policy", (5, 8)), LossKind("dpo_pairwise")
        batch = self._batch()
        theta = np.zeros(spec.param_dim)
        for _ in range(3):
            loss(spec, kind, theta, batch)
            gradient(spec, kind, theta, batch)
        assert len(calls) == 6 + 1  # one policy margin per call, one reference margin
        assert not batch.ref_margin.flags.writeable

    def test_reference_length_is_checked_first(self):
        batch = self._batch(ref_size=41)  # no (vocab, 5) reshape exists
        spec, kind = ModelSpec("softmax_policy", (5, 8)), LossKind("dpo_pairwise")
        with pytest.raises(DimensionError, match="ref_params has length 41"):
            loss(spec, kind, np.zeros(spec.param_dim), batch)
        assert "ref_margin" not in vars(batch)


class TestBatchLinearity:
    def _per_example_mean(self, spec, kind, theta, inputs, targets):
        losses, grads = [], []
        for i in range(inputs.shape[0]):
            b = Batch(inputs[i:i + 1], targets[i:i + 1])
            losses.append(loss(spec, kind, theta, b))
            grads.append(gradient(spec, kind, theta, b))
        return np.mean(losses), np.mean(grads, axis=0)

    @pytest.mark.parametrize("kind_name", ["mlp2", "softmax_policy"])
    def test_mean_of_singletons(self, kind_name):
        rng = np.random.default_rng(4)
        if kind_name == "mlp2":
            spec, tag = ModelSpec("mlp2", (3, 5, 1)), "squared_error"
            x, y = rng.standard_normal((10, 3)), rng.standard_normal(10)
        else:
            spec, tag = ModelSpec("softmax_policy", (4, 6)), "nll_sft"
            x, y = rng.standard_normal((10, 4)), rng.integers(0, 6, 10)
        kind = LossKind(tag)
        theta = 0.5 * rng.standard_normal(spec.param_dim)
        mean_loss, mean_grad = self._per_example_mean(spec, kind, theta, x, y)
        assert abs(loss(spec, kind, theta, Batch(x, y)) - mean_loss) <= 1e-12
        assert np.abs(gradient(spec, kind, theta, Batch(x, y)) - mean_grad).max() <= 1e-12


class TestValidation:
    def test_unsupported_pair(self):
        spec, batch = identity_quadratic()
        with pytest.raises(ConfigurationError):
            loss(spec, LossKind("nll_sft"), [1.0, 2.0], batch)
        pairs = Batch(np.ones((3, 2)), np.zeros((3, 2), dtype=int), ref_params=np.zeros(8))
        with pytest.raises(ConfigurationError, match="ref_params is only meaningful"):
            loss(ModelSpec("softmax_policy", (2, 4)), LossKind("nll_sft"), np.zeros(8), pairs)

    def test_theta_length(self):
        spec, batch = identity_quadratic()
        with pytest.raises(DimensionError):
            loss(spec, SE, [1.0, 2.0, 3.0], batch)

    def test_non_finite_inputs(self):
        spec = ModelSpec("quadratic", (2,))
        with pytest.raises(NumericError):
            loss(spec, SE, [1.0, 2.0], Batch(np.array([[np.inf, 0.0]]), np.zeros(1)))

    def test_non_finite_theta_in_saturated_layer(self):
        # tanh(inf) = 1 keeps the loss and gradient finite, so theta itself
        # must be checked
        spec = ModelSpec("mlp2", (3, 4, 1))
        theta = np.zeros(spec.param_dim)
        theta[0] = np.inf
        batch = Batch(np.ones((2, 3)), np.zeros(2))
        for fn in (loss, gradient):
            with pytest.raises(NumericError, match="theta"):
                fn(spec, SE, theta, batch)

    # quadratic_family(d, pi/2, seed) has capability rows that are zero at
    # every odd index and a safety row that is zero at every even one, so a
    # non-finite entry there meets only zeros in x @ theta
    @pytest.mark.parametrize("state", ["default", "raise", "warnings as errors"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("d", [12, BLOCK + 3])
    def test_non_finite_theta_where_every_row_is_zero(self, d, bad, state):
        fam = tasks.quadratic_family(d, math.pi / 2, seed=0)
        for name, parity in (("capability", 1), ("safety", 0)):
            task = fam.tasks[name]
            index = max(i for i in (d - 2, d - 1) if i % 2 == parity)
            assert not task.train.inputs[:, index].any()
            theta = fam.theta0.copy()
            theta[index] = bad
            for fn in (loss, gradient):
                with numpy_error_state(state), \
                        pytest.raises(NumericError, match="theta contains non-finite entries"):
                    fn(task.spec, task.kind, theta, task.train)

    @pytest.mark.parametrize("fn, what", [(loss, "loss"), (gradient, "gradient")])
    def test_finite_theta_whose_residual_overflows(self, fn, what):
        spec = ModelSpec("quadratic", (2,))
        batch = Batch(np.full((1, 2), 1e200), np.zeros(1))
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match=f"^non-finite quadratic {what}$"):
            fn(spec, SE, np.full(2, 1e200), batch)

    def test_shape_and_ref_params_faults_come_before_a_non_finite_theta(self):
        spec, batch = identity_quadratic()
        with pytest.raises(DimensionError, match="theta has length 3"):
            loss(spec, SE, [np.nan, 1.0, 2.0], batch)
        pairs = Batch(np.ones((1, 2)), np.zeros((1, 2), dtype=int), ref_params=np.zeros(2))
        with pytest.raises(ConfigurationError, match="ref_params is only meaningful"):
            loss(spec, SE, [np.nan, 1.0], pairs)

    @pytest.mark.parametrize("label", [10, -1])
    def test_label_outside_the_vocabulary_raises(self, label):
        # a negative label or token does not wrap around to the last token
        spec = ModelSpec("softmax_policy", (3, 10))
        theta, x = np.zeros(spec.param_dim), np.ones((2, 3))
        cases = [(LossKind("nll_sft"), Batch(x, np.array([0, label])))]
        for tokens in ([[0, 1], [label, 1]], [[0, 1], [0, label]]):
            cases.append((LossKind("dpo_pairwise"), Batch(x, np.array(tokens), ref_params=theta)))
        for kind, batch in cases:
            for fn in (loss, gradient):
                with pytest.raises(ValueError):
                    fn(spec, kind, theta, batch)

    def test_non_integer_labels_and_tokens_raise(self):
        spec = ModelSpec("softmax_policy", (3, 10))
        theta, x = np.zeros(spec.param_dim), np.ones((2, 3))
        cases = [(LossKind("nll_sft"), Batch(x, np.array([0.0, 1.0]))),
                 (LossKind("dpo_pairwise"),
                  Batch(x, np.array([[0.0, 1.0], [2.0, 3.0]]), ref_params=theta))]
        for kind, batch in cases:
            for fn in (loss, gradient):
                with pytest.raises(ConfigurationError, match="dtype float64"):
                    fn(spec, kind, theta, batch)

    @pytest.mark.parametrize("labels", [[[0], [1]], [0, 1, 2], [0], 1])
    def test_labels_not_one_per_row_raise(self, labels):
        # (n, 1) labels once broadcast against the rows and read n x n cells
        spec = ModelSpec("softmax_policy", (3, 10))
        theta = 0.3 * np.random.default_rng(0).standard_normal(spec.param_dim)
        batch = Batch(np.ones((2, 3)), np.array(labels))
        for fn in (loss, gradient):
            with pytest.raises(DimensionError, match=r"batch targets .*\(2,\)"):
                fn(spec, LossKind("nll_sft"), theta, batch)

    @pytest.mark.parametrize("outputs, shape", [(2, (3,)), (2, (2, 3)), (2, (5,)), (2, (2, 2, 1)),
                                                (2, (4,)), (2, (1, 4)), (1, (3,)), (1, (1, 2))])
    def test_mlp_targets_not_one_row_per_input_row_raise(self, outputs, shape):
        # (4,) or (1, 4) targets hold 2 x 2 values but not one row per row
        spec = ModelSpec("mlp2", (3, 4, outputs))
        batch = Batch(np.ones((2, 3)), np.zeros(shape))
        for fn in (loss, gradient):
            with pytest.raises(DimensionError, match=rf"batch targets must have shape \(2, {outputs}\)"):
                fn(spec, SE, np.zeros(spec.param_dim), batch)

    def test_transposed_mlp_targets_raise(self):
        # an (outputs, rows) array holds as many values as (rows, outputs);
        # read in C order it paired targets with the wrong rows
        spec = ModelSpec("mlp2", (3, 4, 2))
        rng = np.random.default_rng(0)
        theta, x, y = (rng.standard_normal(spec.param_dim), rng.standard_normal((3, 3)),
                       rng.standard_normal((3, 2)))
        for fn in (loss, gradient):
            fn(spec, SE, theta, Batch(x, y))
            with pytest.raises(DimensionError, match=r"must have shape \(3, 2\), got shape \(2, 3\)"):
                fn(spec, SE, theta, Batch(x, np.ascontiguousarray(y.T)))

    @pytest.mark.parametrize("shape", [(1,), (2, 1), (), (3,)])
    def test_quadratic_targets_not_one_per_row_raise(self, shape):
        # a (1,) right-hand side once broadcast over both rows of A
        spec = ModelSpec("quadratic", (3,))
        batch = Batch(np.eye(3)[:2], np.ones(shape))
        for fn in (loss, gradient):
            with pytest.raises(DimensionError, match=r"batch targets must have shape \(2,\)"):
                fn(spec, SE, np.zeros(3), batch)

    def test_non_finite_result(self):
        spec = ModelSpec("quadratic", (2,))
        huge = np.full(2, 1e200)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            loss(spec, SE, huge, Batch(np.eye(2) * 1e200, np.zeros(2)))

    @pytest.mark.parametrize("inputs, error", [
        (np.array([[1.0, np.nan]]), NumericError),
        (np.array([[np.inf, 0.0]]), NumericError),
        (np.array([1.0, 2.0]), DimensionError),
        (np.zeros((0, 2)), DimensionError),
    ])
    def test_malformed_batch_raises_when_built(self, inputs, error):
        with pytest.raises(error):
            Batch(inputs, np.zeros(max(1, inputs.shape[0])))

    def test_malformed_pairs_and_reference_raise_when_built(self):
        # a batch with a reference is a preference batch: (rows, 2) tokens
        x = np.ones((3, 2))
        for tokens in (np.zeros((3, 3), dtype=int), np.zeros((2, 2), dtype=int),
                       np.zeros(3, dtype=int), None):
            with pytest.raises(DimensionError, match="preference targets"):
                Batch(x, tokens, ref_params=np.zeros(4))
        with pytest.raises(NumericError, match="ref_params"):
            Batch(x, np.zeros((3, 2), dtype=int), ref_params=np.array([0.0, np.nan]))
        with pytest.raises(DimensionError, match="ref_params"):
            Batch(x, np.zeros((3, 2), dtype=int), ref_params=np.zeros((2, 2)))

    def test_batch_stores_float64_inputs(self):
        batch = Batch([[1, 2], [3, 4]], np.zeros(2))
        assert batch.inputs.dtype == np.float64
        x = np.ones((2, 2))
        assert Batch(x).inputs is x  # float64 inputs are not copied

    def test_unknown_kind_and_tag(self):
        with pytest.raises(ConfigurationError):
            ModelSpec("transformer", (1,))
        with pytest.raises(ConfigurationError, match=r"dims must be positive, got \(4, 0, 1\)"):
            ModelSpec("mlp2", (4, 0, 1))
        with pytest.raises(ConfigurationError, match=r"mlp2 needs 3 dims, got \(4, 8\)"):
            ModelSpec("mlp2", (4, 8))
        with pytest.raises(ConfigurationError):
            LossKind("hinge")

    def test_param_dim(self):
        assert ModelSpec("mlp2", (4, 8, 1)).param_dim == 32 + 8 + 8 + 1
        assert ModelSpec("softmax_policy", (6, 8)).param_dim == 48
        assert set(SUPPORTED_PAIRS) == {"quadratic", "mlp2", "softmax_policy"}


def test_supported_pairs_are_the_pairs_in_use(quadratic_family, regression_family,
                                              policy_family):
    """Every (model, loss) pair is reached by a shipped family and checked
    once by the finite-difference cases of verify, and no other pair exists."""
    supported = sorted((k, tag) for k, tags in SUPPORTED_PAIRS.items() for tag in tags)
    families = (quadratic_family(None), regression_family(), policy_family())
    assert [f.kind for f in families] == [exp.family_kind for exp in DEFAULTS.values()]
    reached = {(t.spec.kind, t.kind.tag) for f in families for t in f.tasks.values()}
    assert reached == set(supported)
    checked = sorted((spec.kind, kind.tag)
                     for spec, kind, _, _ in _fd_cases(np.random.default_rng(0)))
    assert checked == supported
