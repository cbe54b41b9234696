from dataclasses import replace

import numpy as np
import pytest

from orthoproj.config import DEFAULTS
from orthoproj.errors import ConfigurationError, DimensionError, NumericError
from orthoproj.models import Batch, LossKind, ModelSpec
from orthoproj.optimizer import NO_REFRESH, Stage, TrainConfig, train
from orthoproj.subspace import estimate_subspace
from orthoproj.tasks import DifferentiableTask


def quadratic_task(name, a, b):
    spec = ModelSpec("quadratic", (a.shape[1],))
    system = Batch(a, b)
    return DifferentiableTask(name, spec, LossKind("squared_error"), system, system)


class TestNeedsRefresh:
    """The refresh schedule train() keeps: build when the step is a multiple
    of the active period."""

    def test_between_refreshes(self, regression_family):
        # the stage period (5) overrides the run period (3): step 7 is not a build
        cfg = TrainConfig(method="ortho", eta=0.02, steps=12, refresh_every=3,
                          ref_count=2, safety_batch=32, ref_batch=100, seed=0,
                          stages=(Stage("safety", "squared_error", 12, refresh_every=5),))
        result = train(cfg, regression_family())
        built = [step for step, _ in result.subspace_history]
        assert built == [0, 5, 10]
        assert [r.age for r in result.records][5:10] == [0, 1, 2, 3, 4]

    def test_never_refresh_sentinel(self, policy_family):
        # NO_REFRESH on every stage: one build at step 0, none at the stage change
        config = replace(DEFAULTS["policy"].train, probes=False).with_refresh(NO_REFRESH)
        result = train(config, policy_family())
        assert [step for step, _ in result.subspace_history] == [0]
        assert [r.age for r in result.records] == list(range(config.steps))

    def test_invalid_period(self):
        base = replace(DEFAULTS["policy"].train, probes=False)
        for period in (0, -2, 2.5):
            with pytest.raises(ConfigurationError, match="refresh"):
                base.with_refresh(period).validate()
        base.with_refresh(NO_REFRESH).validate()
        base.with_refresh(30).validate()


class TestEstimateSubspace:
    def test_closed_form_quadratic_gradient(self):
        # L = 0.5 ||theta - c||^2 at theta = c + (1, 0): gradient (1, 0)
        c = np.array([2.0, -1.0])
        task = quadratic_task("cap", np.eye(2), c)
        theta = c + np.array([1.0, 0.0])
        sub = estimate_subspace(theta, [task], 1, np.random.default_rng(0), 1e-6, step=0)
        assert sub.rank == 1
        np.testing.assert_array_equal(sub.basis.vectors, [[1.0, 0.0]])
        assert sub.built_at_step == 0
        assert sub.candidate_count == 1

    def test_duplicate_tasks_give_rank_one(self, regression_family):
        fam = regression_family()
        task = fam.tasks["cap_a"]
        sub = estimate_subspace(fam.theta0, [task, task], task.train.inputs.shape[0],
                                np.random.default_rng(0), 1e-6, step=0)
        assert sub.candidate_count == 2
        assert sub.rank == 1

    def test_two_facets_give_rank_two(self, policy_family):
        fam = policy_family()
        sub = estimate_subspace(fam.theta0, list(fam.capability_tasks), 200,
                                np.random.default_rng(0), 1e-6, step=0)
        assert sub.rank == 2

    def test_rank_never_grows_under_duplication(self, policy_family):
        fam = policy_family()
        refs = list(fam.capability_tasks)
        base = estimate_subspace(fam.theta0, refs, 200,
                                 np.random.default_rng(0), 1e-6, step=0)
        extended = estimate_subspace(fam.theta0, refs + [refs[0], refs[1]], 200,
                                     np.random.default_rng(0), 1e-6, step=0)
        assert extended.rank <= base.rank + 0  # duplicates never add rank

    def test_deterministic(self, regression_family):
        fam = regression_family()
        subs = [estimate_subspace(fam.theta0, list(fam.capability_tasks), 200,
                                  np.random.default_rng(123), 1e-6, step=0)
                for _ in range(2)]
        assert subs[0].basis.vectors.tobytes() == subs[1].basis.vectors.tobytes()

    def test_empty_reference_tasks(self):
        with pytest.raises(ConfigurationError):
            estimate_subspace(np.zeros(3), [], 1, np.random.default_rng(0), 1e-6, 0)

    def test_non_finite_gradient_reports_task_index(self):
        good = quadratic_task("ok", np.eye(2), np.zeros(2))
        bad = quadratic_task("overflow", 1e200 * np.eye(2), np.zeros(2))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="task 1"):
            estimate_subspace(np.full(2, 1e200), [good, bad], 1,
                              np.random.default_rng(0), 1e-6, 0)

    def test_non_finite_reference_data_reports_task_index(self):
        # a task's batches are validated when it is built, so non-finite
        # reference data never reaches an estimate
        with pytest.raises(NumericError, match="batch inputs contain non-finite entries"):
            quadratic_task("bad", np.array([[1.0, np.nan], [0.0, 1.0]]), np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_reports_the_first_task(self, bad, regression_family):
        # theta is validated by each reference task's gradient, including an
        # inf weight in the mlp's first layer, which tanh would saturate
        fam = regression_family()
        theta = fam.theta0.copy()
        theta[0] = bad
        with pytest.raises(NumericError, match=r"reference task 0 \(cap_a\): theta contains "
                                               r"non-finite"):
            estimate_subspace(theta, list(fam.capability_tasks), 50,
                              np.random.default_rng(0), 1e-6, 0)
        first = quadratic_task("first", np.eye(2), np.zeros(2))
        # the quadratic kind reads theta's finiteness off x @ theta, whose
        # inf * 0 warns under numpy's default error state before the raise
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match=r"reference task 0 \(first\): theta"):
            estimate_subspace(np.array([1.0, bad]), [first, first], 1,
                              np.random.default_rng(0), 1e-6, 0)

    def test_two_dimensional_theta_is_rejected(self):
        task = quadratic_task("cap", np.eye(2), np.zeros(2))
        with pytest.raises(DimensionError, match="theta must be 1-D"):
            estimate_subspace(np.zeros((1, 2)), [task], 1, np.random.default_rng(0),
                              1e-6, 0)


class TestFreshnessContract:
    def test_age_stays_below_period(self, regression_family):
        fam = regression_family()
        cfg = TrainConfig(method="ortho", eta=0.02, steps=40, refresh_every=5,
                          ref_count=2, safety_batch=32, ref_batch=100, seed=0,
                          stages=(Stage("safety", "squared_error", 40),))
        result = train(cfg, fam)
        assert all(r.age < 5 for r in result.records)
        assert [step for step, _ in result.subspace_history] == list(range(0, 40, 5))

    def test_no_refresh_mode_builds_once(self, regression_family):
        fam = regression_family()
        cfg = TrainConfig(method="ortho", eta=0.02, steps=30, refresh_every=NO_REFRESH,
                          ref_count=2, safety_batch=32, ref_batch=100, seed=0,
                          stages=(Stage("safety", "squared_error", 30),))
        result = train(cfg, fam)
        assert result.subspace_history == ((0, result.subspace_history[0][1]),)
        assert result.records[-1].age == 29

    def test_every_step_builds_at_period_one(self, regression_family):
        fam = regression_family()
        cfg = TrainConfig(method="ortho", eta=0.02, steps=10, refresh_every=1,
                          ref_count=2, safety_batch=32, ref_batch=100, seed=0,
                          stages=(Stage("safety", "squared_error", 10),))
        result = train(cfg, fam)
        assert [step for step, _ in result.subspace_history] == list(range(10))
        assert all(r.age == 0 for r in result.records)

    def test_shipped_policy_stage_periods(self, policy_family):
        # the likelihood stage (steps 0-59) refreshes every 30 steps, the
        # preference stage (steps 60-99) every 5, on the global step index
        config = replace(DEFAULTS["policy"].train, probes=False)
        assert [s.refresh_every for s in config.stages] == [30, 5]
        result = train(config, policy_family())
        assert ([step for step, _ in result.subspace_history]
                == [0, 30, *range(60, 100, 5)])
