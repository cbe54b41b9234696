import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoproj import optimizer, tasks
from orthoproj.config import DEFAULTS
from orthoproj.errors import ConfigurationError
from orthoproj.linalg import BLOCK, angle_between, dot, norm, project_complement
from orthoproj.metrics import alignment_tax, records_to_csv
from orthoproj.models import Batch, LossKind, ModelSpec
from orthoproj.optimizer import NO_REFRESH, Stage, TrainConfig, train
from orthoproj.subspace import estimate_subspace
from orthoproj.tasks import DifferentiableTask, TaskFamily


def origin_quadratic(d=2):
    spec = ModelSpec("quadratic", (d,))
    system = Batch(np.eye(d), np.zeros(d))
    return DifferentiableTask("safety", spec, LossKind("squared_error"), system, system)


QUAD_BASE = dict(eta=0.05, steps=100, refresh_every=5, ref_count=1,
                 safety_batch=1, ref_batch=1, seed=0,
                 stages=(Stage("safety", "squared_error", 100),))


def run_recorded(config, family):
    """train(config, family), plus a copy of each (task name, gradient) it
    takes through a task and each (basis rows, g, g_proj) it projects."""
    gradients, projections = [], []
    gradient = DifferentiableTask.gradient

    def recording_gradient(task, theta, batch=None):
        g = gradient(task, theta, batch)
        gradients.append((task.name, g.copy()))  # the step later reuses g's array
        return g

    def recording_projection(g, basis):
        g_proj = project_complement(g, basis)
        projections.append((basis.vectors, g.copy(), g_proj.copy()))
        return g_proj

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DifferentiableTask, "gradient", recording_gradient)
        mp.setattr(optimizer, "project_complement", recording_projection)
        result = train(config, family)
    return result, gradients, projections


def one_step(family, method, eta, **fields):
    """A one-step run of the family's safety task. On a quadratic family
    every batch is the task's whole system, so the step draws no rng."""
    config = TrainConfig(method=method, eta=eta, steps=1,
                         stages=(Stage("safety", "squared_error", 1),), **fields)
    return run_recorded(config, family)


class TestNaiveStep:
    def test_closed_form(self):
        task = origin_quadratic()
        fam = TaskFamily("quadratic_pair", 0, np.array([1.0, 0.0]), (), {"safety": task},
                         "safety")
        result, gradients, _ = one_step(fam, "naive", 0.5, ref_count=0)
        np.testing.assert_array_equal(result.theta_final, [0.5, 0.0])
        assert [name for name, _ in gradients] == ["safety"]
        np.testing.assert_array_equal(gradients[0][1], [1.0, 0.0])

    def test_single_step_descends(self, regression_family):
        fam = regression_family()
        config = TrainConfig(method="naive", eta=1e-3, steps=1, safety_batch=64,
                             stages=(Stage("safety", "squared_error", 1),))
        task = fam.tasks["safety"]
        assert task.loss(train(config, fam).theta_final) < task.loss(fam.theta0)


class TestProjectedStep:
    def test_orthogonal_case_equals_naive(self, quadratic_family):
        fam = quadratic_family(math.pi / 2)
        theta_p = one_step(fam, "ortho", 0.05, ref_count=1)[0].theta_final
        theta_n = one_step(fam, "naive", 0.05, ref_count=1)[0].theta_final
        assert theta_p.tobytes() == theta_n.tobytes()

    def test_collinear_case_stalls(self, quadratic_family):
        fam = quadratic_family(0.0)
        result, _, [(_, g, g_proj)] = one_step(fam, "ortho", 0.05, ref_count=1)
        assert np.abs(result.theta_final - fam.theta0).max() <= 1e-12
        assert norm(g_proj) <= 1e-12 * norm(g)

    def test_projected_norm_is_sine_fraction(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        _, _, [(_, g, g_proj)] = one_step(fam, "ortho", 0.05, ref_count=1)
        assert abs(norm(g_proj) - norm(g) * math.sin(math.pi / 4)) <= 1e-9


class TestReplayStep:
    def test_lambda_zero_equals_naive(self, quadratic_family):
        fam = quadratic_family(math.pi / 3)
        theta_r = one_step(fam, "replay", 0.05, ref_count=1, replay_lambda=0.0)[0].theta_final
        theta_n = one_step(fam, "naive", 0.05, ref_count=1)[0].theta_final
        assert theta_r.tobytes() == theta_n.tobytes()

    def test_large_lambda_aligns_with_reference_gradient(self, quadratic_family):
        fam = quadratic_family(math.pi / 3)
        result, _, _ = one_step(fam, "replay", 1.0, ref_count=1, replay_lambda=1e6)
        direction = fam.theta0 - result.theta_final  # eta * (g + lam * mean_ref)
        ref_grad = fam.capability_tasks[0].gradient(fam.theta0)
        assert angle_between(direction, ref_grad) <= 1e-3

    def test_default_lambda_sits_between(self, quadratic_family):
        fam = quadratic_family(math.pi / 3)
        taxes = {}
        for method in ("ortho", "naive", "replay"):
            result = train(TrainConfig(method=method, **QUAD_BASE), fam)
            taxes[method] = alignment_tax(result, fam).total_tax
        assert taxes["ortho"] < taxes["replay"] < taxes["naive"]
        assert taxes["replay"] > taxes["ortho"] > -1e-12


class TestStepArithmetic:
    """A step forms the same bytes as the plain expression, in a new array,
    leaving the family's theta0 as it was."""

    @pytest.mark.parametrize("eta", [1e-3, 0.05])
    def test_steps_match_the_plain_expressions(self, eta):
        fam = _random_quadratic_family(7, 3, seed=1)  # three facets, so dividing by M rounds
        theta, safety, refs = fam.theta0, fam.tasks["safety"], list(fam.capability_tasks)
        before = theta.copy()
        g = safety.gradient(theta)

        def stepped(method, **fields):
            result = one_step(fam, method, eta, **fields)[0]
            assert result.theta_final is not theta
            return result.theta_final.tobytes()

        assert stepped("naive") == (theta - eta * g).tobytes()
        basis = estimate_subspace(theta, refs[:2], 1, np.random.default_rng(2), 1e-6, 0).basis
        g_proj = project_complement(g, basis)
        assert stepped("ortho", ref_count=2) == (theta - eta * g_proj).tobytes()
        # (1.0, 1) skips both the mean's division and the mix's multiply,
        # (1.0, 3) only the multiply, (0.7, 1) only the division
        for lam, m in ((0.7, 3), (0.7, 2), (0.0, 3), (1.0, 0), (1.0, 1), (1.0, 3), (0.7, 1)):
            if m:
                acc = np.zeros_like(g)
                for t in refs[:m]:
                    acc += t.gradient(theta)
                mixed = g + lam * (acc / m)
            else:
                mixed = g
            got = stepped("replay", ref_count=m, replay_lambda=lam)
            assert got == (theta - eta * mixed).tobytes()
        assert theta.tobytes() == before.tobytes()

    @pytest.mark.parametrize("m", [1, 2])
    def test_replay_sums_reference_gradients_from_zeros(self, m):
        # 0.0 + -0.0 is +0.0, so the sum from zeros has +0.0 wherever every
        # reference gradient has -0.0; where theta and the safety gradient
        # hold -0.0 as well, that sign reaches theta'. At lam 1.0 the mix
        # skips its multiply, and at m = 1 the mean its division.
        class Fixed:
            def __init__(self, g):
                self.g = np.array(g)

            def gradient(self, theta, batch):
                return self.g.copy()

        theta = np.array([-0.0, -0.0, 1.0, -0.0])
        safety = Fixed([-0.0, -0.0, 2.0, 0.5])
        refs = [Fixed([-0.0, 0.0, -0.0, 3.0]), Fixed([-0.0, -0.0, 0.0, -1.0])][:m]
        for lam in (0.7, 1.0):
            direction = optimizer._mixed_direction(theta, safety.gradient(theta, None), refs,
                                                   [None] * m, lam)
            acc = np.zeros_like(theta)
            for t in refs:
                acc += t.gradient(theta, None)
            mixed = safety.gradient(theta, None) + lam * (acc / m)
            assert direction.tobytes() == mixed.tobytes()
            got = theta - 0.5 * direction
            want = theta - 0.5 * mixed
            assert got.tobytes() == want.tobytes()
            assert [math.copysign(1.0, x) for x in got[:2]] == [-1.0, -1.0]


class TestTrain:
    def test_single_step_orthogonal_matches_naive(self, quadratic_family):
        fam = quadratic_family(math.pi / 2)
        base = dict(QUAD_BASE, steps=1, stages=(Stage("safety", "squared_error", 1),))
        r_ortho = train(TrainConfig(method="ortho", **base), fam)
        r_naive = train(TrainConfig(method="naive", **base), fam)
        assert r_ortho.theta_final.tobytes() == r_naive.theta_final.tobytes()

    def test_no_refresh_history_single_entry(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        cfg = TrainConfig(method="ortho", **dict(QUAD_BASE, refresh_every=NO_REFRESH))
        result = train(cfg, fam)
        assert len(result.subspace_history) == 1
        assert result.subspace_history[0][0] == 0

    def test_per_step_projection_orthogonality(self, regression_family):
        # the logged projection really is orthogonal to the basis at every step
        fam = regression_family()
        config = TrainConfig(method="ortho", eta=0.02, steps=20, refresh_every=5,
                             ref_count=len(fam.capability_tasks), safety_batch=64, ref_batch=200,
                             stages=(Stage("safety", "squared_error", 20),))
        result, _, projections = run_recorded(config, fam)
        assert len(projections) == len(result.records) == 20
        for basis, g, g_proj in projections:
            bound = 1e-8 * norm(g)
            assert all(abs(dot(g_proj, u)) <= bound for u in basis)
            assert norm(g_proj) <= norm(g)

    def test_records_are_complete_and_ordered(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        result = train(TrainConfig(method="ortho", **QUAD_BASE), fam)
        assert len(result.records) == 100
        assert [r.step for r in result.records] == list(range(100))
        assert all(r.g_tilde_norm <= r.g_norm for r in result.records)

    def test_stall_steps_are_logged_not_raised(self, quadratic_family):
        fam = quadratic_family(0.0)
        result = train(TrainConfig(method="ortho", **QUAD_BASE), fam)
        assert len(result.records) == 100
        assert all(r.removed_fraction == 1.0 for r in result.records)
        assert np.abs(result.theta_final - fam.theta0).max() <= 1e-10

    def test_reduction_identities_bitwise(self, regression_family):
        fam = regression_family()
        base = dict(eta=0.02, steps=100, refresh_every=5, safety_batch=64,
                    ref_batch=200, seed=0,
                    stages=(Stage("safety", "squared_error", 100),))
        naive = train(TrainConfig(method="naive", ref_count=2, **base), fam)
        ortho0 = train(TrainConfig(method="ortho", ref_count=0, **base), fam)
        replay0 = train(TrainConfig(method="replay", ref_count=2,
                                    replay_lambda=0.0, **base), fam)
        assert naive.theta_final.tobytes() == ortho0.theta_final.tobytes()
        assert naive.theta_final.tobytes() == replay0.theta_final.tobytes()
        assert records_to_csv(naive.records) == records_to_csv(ortho0.records)
        assert records_to_csv(naive.records) == records_to_csv(replay0.records)

    def test_first_order_preservation_closed_form(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        cap = fam.capability_tasks[0]
        eta = 1e-2
        result, _, [(_, _, g_proj)] = one_step(fam, "ortho", eta, ref_count=1)
        theta1 = result.theta_final
        change = cap.loss(theta1) - cap.loss(fam.theta0)
        image = cap.train.inputs @ (theta1 - fam.theta0)
        remainder = 0.5 * float(image @ image)
        assert abs(change - remainder) <= 1e-6 * max(abs(change), abs(remainder))
        # halving eta shrinks the change fourfold
        theta_half = fam.theta0 - 0.5 * eta * g_proj
        change_half = cap.loss(theta_half) - cap.loss(fam.theta0)
        assert abs(change / change_half - 4.0) <= 1e-6 * 4.0


class TestMemory:
    """train() holds theta and the active basis between steps, and within a
    step at most k parameter-sized arrays in all plus b block buffers of
    linalg.BLOCK float64 products: 2 arrays for naive (the update is formed
    in the gradient's array) and the buffer of the gradient's norm, which
    is taken while theta and the gradient are held; 3 arrays for replay
    with one reference facet (it accumulates into the first reference
    gradient) and 4 with two; the basis plus 3 for ortho at rank 1 (theta,
    the gradient, its projection) and plus 4 at rank 2, where a refresh
    holds theta, two candidate gradients, the basis block and one more
    array. Rows of 100,000 elements are longer than linalg.BLOCK, so the
    projection removes them one at a time; one (2, d) product block would
    put the rank-2 step at the basis plus 5. The slack covers small
    objects, and a boolean finiteness mask (d bytes), which is built only
    when a finite array's sum of squares overflows."""

    D = 100_000

    # the case ids stay method-k; m is the number of reference facets. One
    # naive step holds only the gradient, which becomes theta: a leg starts
    # from the read-only theta0, not from a copy of it.
    @pytest.mark.parametrize("method, m, k, b, steps",
                             [("naive", 1, 2, 1, 3), ("naive", 1, 1, 1, 1), ("replay", 1, 3, 0, 3),
                              ("replay", 2, 4, 0, 3), ("ortho", 1, 1 + 3, 0, 3),
                              ("ortho", 2, 2 + 4, 0, 3)],
                             ids=["naive-2", "naive-1-one-step", "replay-3", "replay-4", "ortho-4",
                                  "ortho-6"])
    def test_peak_above_entry(self, method, m, k, b, steps):
        if m == 1:
            fam = tasks.quadratic_family(self.D, math.pi / 4, seed=0)
        else:
            fam = _random_quadratic_family(self.D, m, seed=0)
        cfg = TrainConfig(method=method, eta=0.05, steps=steps, refresh_every=1, ref_count=m,
                          stages=(Stage("safety", "squared_error", steps),))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = train(cfg, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if method == "ortho":
            assert [rank for _, rank in result.subspace_history] == [m] * steps
        assert peak - start <= k * 8 * self.D + b * 8 * BLOCK + 256 * 1024


def _random_quadratic_family(d, m, seed):
    """A safety task and m capability facets, each a random quadratic system
    of one to three rows in d dimensions."""
    rng = np.random.default_rng(seed)
    spec, kind = ModelSpec("quadratic", (d,)), LossKind("squared_error")

    def task(name):
        a = rng.standard_normal((int(rng.integers(1, 4)), d))
        system = Batch(a, rng.standard_normal(a.shape[0]))
        return DifferentiableTask(name, spec, kind, system, system)

    caps = tuple(task(f"cap{i}") for i in range(m))
    safety = task("safety")
    return TaskFamily("quadratic_pair", seed, rng.standard_normal(d), caps,
                      {t.name: t for t in caps + (safety,)}, "safety")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_train_properties_hypothesis(d_extra, m, period, seed):
    d = 1 + d_extra
    fam = _random_quadratic_family(d, m, seed)
    cfg = TrainConfig(method="ortho", eta=0.01, steps=6, refresh_every=period, ref_count=m,
                      seed=seed, stages=(Stage("safety", "squared_error", 6),))
    result, _, steps = run_recorded(cfg, fam)
    assert len(steps) == len(result.records) == 6
    for record in result.records:
        assert 0.0 <= record.removed_fraction <= 1.0
        assert record.rank <= min(m, d)
    for basis, g, g_proj in steps:
        assert all(abs(dot(g_proj, u)) <= 1e-10 * norm(g) for u in basis)
    probe_free = train(dataclasses.replace(cfg, probes=False), fam)
    assert probe_free.theta_final.tobytes() == result.theta_final.tobytes()


NON_PROBE_FIELDS = ("step", "stage", "g_norm", "g_tilde_norm", "removed_fraction", "rank", "age")


class TestEndpointOnly:
    """probes=False runs the probes on each stage's last step only and
    changes nothing else a run produces."""

    @pytest.fixture
    def shipped(self, quadratic_family, regression_family, policy_family):
        def alpha(stem):
            return DEFAULTS[stem].family_params_dict()["alpha"]
        return {"quadratic": lambda: quadratic_family(alpha("quadratic")),
                "regression": lambda: regression_family(alpha("regression")),
                "policy": policy_family}

    @pytest.mark.parametrize("method", ["naive", "ortho", "replay"])
    @pytest.mark.parametrize("stem", ["quadratic", "regression", "policy"])
    def test_probe_free_run_matches_the_default(self, shipped, stem, method):
        fam = shipped[stem]()
        cfg = dataclasses.replace(DEFAULTS[stem].train, method=method)
        calls = []
        loss = DifferentiableTask.loss

        def counting(task, theta, batch=None):
            calls.append(task.name)
            return loss(task, theta, batch)

        n_probes = 1 + len(fam.capability_tasks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DifferentiableTask, "loss", counting)
            full = train(cfg, fam)
            assert len(calls) == n_probes * cfg.steps
            calls.clear()
            off = train(dataclasses.replace(cfg, probes=False), fam)
            assert len(calls) == n_probes * len(cfg.stages)

        assert off.theta_final.tobytes() == full.theta_final.tobytes()
        assert off.subspace_history == full.subspace_history
        assert len(off.records) == len(full.records)
        stage_ends = {end - 1 for end in itertools.accumulate(s.steps for s in cfg.stages)}
        for a, b in zip(off.records, full.records):
            assert all(getattr(a, f) == getattr(b, f) for f in NON_PROBE_FIELDS)
            assert len(a.ref_losses) == len(b.ref_losses)
            if a.step in stage_ends:
                assert a == b
            else:
                assert math.isnan(a.safety_loss)
                assert all(math.isnan(v) for v in a.ref_losses)
        header = records_to_csv(full.records).split("\n", 1)[0]
        assert records_to_csv(off.records).split("\n", 1)[0] == header
        assert alignment_tax(off, fam) == alignment_tax(full, fam)


class TestSharedFamily:
    def test_run_order_does_not_matter(self, policy_family):
        fam = policy_family()
        base = DEFAULTS["policy"].train

        def run(method):
            r = train(dataclasses.replace(base, method=method), fam)
            return r.theta_final.tobytes(), records_to_csv(r.records)

        first = {m: run(m) for m in ("naive", "ortho")}
        second = {m: run(m) for m in ("ortho", "naive")}
        assert first == second
        assert first["naive"] != first["ortho"]


class TestReferenceMargins:
    def test_probe_margin_once_per_preference_stage(self, policy_family, monkeypatch):
        computed = []
        original = Batch.__dict__["ref_margin"].func

        def counting(batch):
            computed.append(batch)  # also keeps each batch alive, so ids stay unique
            return original(batch)

        prop = functools.cached_property(counting)
        prop.__set_name__(Batch, "ref_margin")
        monkeypatch.setattr(Batch, "ref_margin", prop)
        fam = policy_family()
        stages = (Stage("sft", "nll_sft", 3), Stage("dpo", "dpo_pairwise", 4),
                  Stage("dpo", "dpo_pairwise", 5))
        cfg = dataclasses.replace(DEFAULTS["policy"].train, steps=12, stages=stages)
        train(cfg, fam)
        # one per sampled batch (a new batch each step) and one per stage's probe
        assert len({id(b) for b in computed}) == len(computed) == 4 + 5 + 2
        probes = [b for b in computed if b.inputs.shape[0] == fam.tasks["dpo"].probe.inputs.shape[0]]
        assert len(probes) == 2
        assert probes[0].ref_params.tobytes() != probes[1].ref_params.tobytes()

    def test_sampled_dpo_batches_carry_the_stage_entry_parameters(self, policy_family,
                                                                   monkeypatch):
        fam = policy_family()
        sft = Stage("sft", "nll_sft", 3)
        cfg = dataclasses.replace(DEFAULTS["policy"].train, steps=7,
                                  stages=(sft, Stage("dpo", "dpo_pairwise", 4)))
        # a run's first stage does not depend on the stages after it
        entry = train(dataclasses.replace(cfg, steps=3, stages=(sft,)), fam).theta_final
        sampled = []
        original = DifferentiableTask.sample_batch

        def recording(task, rng, size):
            batch = original(task, rng, size)
            sampled.append((task.name, batch))
            return batch

        monkeypatch.setattr(DifferentiableTask, "sample_batch", recording)
        train(cfg, fam)
        dpo_batches = [b for name, b in sampled if name == "dpo"]
        assert len(dpo_batches) == 4
        for batch in dpo_batches:
            assert batch.ref_params.tobytes() == entry.tobytes()
            assert batch.ref_params.tobytes() != fam.theta0.tobytes()


class TestValidation:
    def test_bad_configs(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        with pytest.raises(ConfigurationError):
            TrainConfig(method="sgd", **QUAD_BASE).validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(**dict(QUAD_BASE, eta=0.0)).validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(**dict(QUAD_BASE, steps=99)).validate()  # stage sum mismatch
        for period in (0, -2, 2.5):
            with pytest.raises(ConfigurationError, match="refresh_every"):
                TrainConfig(**dict(QUAD_BASE, refresh_every=period)).validate()
        with pytest.raises(ConfigurationError, match="stages refresh period"):
            TrainConfig(**dict(QUAD_BASE, stages=(
                Stage("safety", "squared_error", 100, refresh_every=2.5),))).validate()
        with pytest.raises(ConfigurationError):
            train(TrainConfig(**dict(QUAD_BASE,
                                     stages=(Stage("missing", "squared_error", 100),))), fam)
        with pytest.raises(ConfigurationError):
            train(TrainConfig(**dict(QUAD_BASE,
                                     stages=(Stage("safety", "nll_sft", 100),))), fam)
        with pytest.raises(ConfigurationError):
            train(TrainConfig(**dict(QUAD_BASE, ref_count=5)), fam)
        with pytest.raises(ConfigurationError):
            TrainConfig(**dict(QUAD_BASE, ref_facets=(0, 1))).validate()
        with pytest.raises(ConfigurationError, match=r"ref_facets \(1,\) out of range"):
            train(TrainConfig(**dict(QUAD_BASE, ref_facets=(1,))), fam)
        with pytest.raises(ConfigurationError, match="at least one stage is required"):
            TrainConfig(**dict(QUAD_BASE, stages=())).validate()
        for probes in ("no", 0, None):
            with pytest.raises(ConfigurationError, match="probes"):
                TrainConfig(**dict(QUAD_BASE, probes=probes)).validate()
        for key in ("eta", "delta", "replay_lambda"):
            with pytest.raises(ConfigurationError, match=key):
                TrainConfig(**dict(QUAD_BASE, method="replay", **{key: math.inf})).validate()

    @pytest.mark.parametrize("field, value", [
        ("steps", 300.0), ("ref_count", 1.5), ("safety_batch", 1.5), ("ref_batch", 1.5),
        ("seed", 1.5), ("seed", "3"), ("stage 'safety' steps", 300.0)],
        ids=["steps", "ref_count", "safety_batch", "ref_batch", "seed", "seed_text",
             "stage_steps"])
    def test_counts_must_be_integers(self, regression_family, field, value):
        # each of these once failed mid-run with numpy's TypeError
        base = DEFAULTS["regression"].train
        if field.startswith("stage "):
            config = dataclasses.replace(base, stages=(Stage("safety", "squared_error", value),))
        else:
            config = dataclasses.replace(base, **{field: value})
        message = f"^{field} must be an integer, got {value!r}$"
        with pytest.raises(ConfigurationError, match=message):
            config.validate()
        with pytest.raises(ConfigurationError, match=message):
            train(config, regression_family())

    def test_numpy_integer_counts_are_integers(self):
        base = DEFAULTS["regression"].train
        dataclasses.replace(base, steps=np.int64(300), ref_count=np.int64(2),
                            safety_batch=np.int32(64), ref_batch=np.uint16(200),
                            seed=np.int64(3)).validate()
