import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orthoproj import tasks
from orthoproj.config import DEFAULTS
from orthoproj.errors import ConfigurationError, DimensionError, NumericError
from orthoproj.linalg import angle_between, norm, project_complement
from orthoproj.metrics import alignment_tax
from orthoproj.models import Batch, LossKind
from orthoproj.optimizer import Stage, TrainConfig, train
from orthoproj.subspace import estimate_subspace
from orthoproj.tasks import policy_family, quadratic_family, regression_family


def _out_of_place_quadratic(d, alpha, seed):
    """quadratic_family's arrays as formed before it built them in place:
    (theta0, A_cap, b_cap, A_safe, b_safe)."""
    rng = np.random.default_rng(seed)
    theta0 = rng.standard_normal(d)
    u1 = np.zeros(d)
    u1[0::2] = rng.standard_normal(u1[0::2].size)
    u1 /= norm(u1)
    f = np.zeros(d)
    f[1::2] = rng.standard_normal(f[1::2].size)
    f /= norm(f)
    c, s = tasks._snap(math.cos(alpha)), tasks._snap(math.sin(alpha))
    u2 = c * u1 + s * f
    w = s * u1 - c * f
    a_cap = np.vstack([u1, w])
    a_safe = u2[None, :]
    cap_residual, safety_residual = tasks.QUADRATIC_RESIDUALS
    return (theta0, a_cap, a_cap @ theta0 - np.array([cap_residual, 0.0]),
            a_safe, a_safe @ theta0 - np.array([safety_residual]))


def make_pair(d, alpha, seed):
    """(capability task, safety task, theta0) of a quadratic family."""
    fam = quadratic_family(d, alpha, seed)
    return fam.tasks["capability"], fam.tasks["safety"], fam.theta0


class TestQuadraticPair:
    @pytest.mark.parametrize("alpha", [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2])
    def test_angle_controllability(self, alpha):
        cap, safety, theta0 = make_pair(10, alpha, seed=0)
        measured = angle_between(cap.gradient(theta0), safety.gradient(theta0))
        assert abs(measured - alpha) <= 1e-9

    def test_orthogonal_construction_exact(self):
        cap, safety, theta0 = make_pair(12, math.pi / 2, seed=0)
        g_cap = cap.gradient(theta0)
        g_safe = safety.gradient(theta0)
        assert float(g_cap @ g_safe) == 0.0

    def test_collinear_construction(self):
        cap, safety, theta0 = make_pair(12, 0.0, seed=0)
        sub = estimate_subspace(theta0, [cap], 1, np.random.default_rng(0), 1e-6, 0)
        projected = project_complement(safety.gradient(theta0), sub.basis)
        assert norm(projected) <= 1e-12

    def test_cosine_at_quarter_turn(self):
        cap, safety, theta0 = make_pair(10, math.pi / 4, seed=7)
        g1, g2 = cap.gradient(theta0), safety.gradient(theta0)
        cos = float(g1 @ g2) / (norm(g1) * norm(g2))
        assert abs(cos - math.sqrt(2) / 2) <= 1e-9

    def test_gradients_nonzero(self):
        cap, safety, theta0 = make_pair(6, 0.3, seed=1)
        assert norm(cap.gradient(theta0)) > 0
        assert norm(safety.gradient(theta0)) > 0

    def test_exact_taylor_identity(self):
        # loss change under any step is <g, dt> + 0.5 ||A dt||^2 exactly
        cap, _, theta0 = make_pair(8, 0.9, seed=2)
        rng = np.random.default_rng(3)
        dt = 0.1 * rng.standard_normal(8)
        g = cap.gradient(theta0)
        image = cap.train.inputs @ dt
        predicted = float(g @ dt) + 0.5 * float(image @ image)
        actual = cap.loss(theta0 + dt) - cap.loss(theta0)
        assert abs(actual - predicted) <= 1e-12 * max(1.0, abs(actual))

    @pytest.mark.parametrize("alpha", [0.0, 0.3, math.pi / 4, math.pi / 2])
    @pytest.mark.parametrize("d", [2, 3, 12, 1001])
    def test_arrays_match_the_out_of_place_construction(self, d, alpha):
        fam = quadratic_family(d, alpha, seed=d)
        cap, safety = fam.tasks["capability"], fam.tasks["safety"]
        got = (fam.theta0, cap.train.inputs, cap.train.targets,
               safety.train.inputs, safety.train.targets)
        want = _out_of_place_quadratic(d, alpha, seed=d)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert [a.shape for a in got] == [a.shape for a in want]

    def test_build_peak_is_the_family_plus_one_vector(self):
        d = 100_000
        vec = 8 * d
        quadratic_family(8, 0.3, seed=0)  # one-time lazy allocations happen here
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fam = quadratic_family(d, math.pi / 4, seed=0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # theta0, the two capability rows and the safety row
        assert kept - start >= 4 * vec
        assert fam.tasks["safety"].train.inputs.base.nbytes == vec
        assert peak - kept <= vec + 256 * 1024

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_pair(1, 0.5, seed=0)
        with pytest.raises(ConfigurationError):
            make_pair(4, -0.1, seed=0)


class TestRegressionFamily:
    def test_seed_determinism(self):
        a = regression_family(16, 12, math.pi / 3, 1.0, 200, 2000, seed=5)
        b = regression_family(16, 12, math.pi / 3, 1.0, 200, 2000, seed=5)
        assert a.theta0.tobytes() == b.theta0.tobytes()
        for name in a.tasks:
            assert a.tasks[name].train.inputs.tobytes() == b.tasks[name].train.inputs.tobytes()
            assert a.tasks[name].train.targets.tobytes() == b.tasks[name].train.targets.tobytes()

    def test_alpha_zero_naive_tuning_is_nearly_neutral(self, regression_family):
        # consistent shared teachers: 100 naive steps leave each capability
        # probe within 5% of its starting value
        for seed in (0, 1, 2):
            fam = regression_family(0.0, seed)
            before = [fam.tasks[n].loss(fam.theta0) for n in ("cap_a", "cap_b")]
            cfg = TrainConfig(method="naive", eta=0.02, steps=100, refresh_every=5,
                              ref_count=2, safety_batch=64, ref_batch=200, seed=seed,
                              stages=(Stage("safety", "squared_error", 100),))
            result = train(cfg, fam)
            after = [fam.tasks[n].loss(result.theta_final) for n in ("cap_a", "cap_b")]
            for b, a in zip(before, after):
                assert abs(a / b - 1.0) < 0.05

    def test_default_alpha_naive_forgets(self, regression_family):
        fam = regression_family()
        before = sum(fam.tasks[n].loss(fam.theta0) for n in ("cap_a", "cap_b"))
        cfg = TrainConfig(method="naive", eta=0.02, steps=100, refresh_every=5,
                          ref_count=2, safety_batch=64, ref_batch=200, seed=0,
                          stages=(Stage("safety", "squared_error", 100),))
        result = train(cfg, fam)
        after = sum(fam.tasks[n].loss(result.theta_final) for n in ("cap_a", "cap_b"))
        assert after > before + 0.05

    def test_block_structure(self, regression_family):
        fam = regression_family()
        cap_a = fam.tasks["cap_a"].train.inputs
        safety = fam.tasks["safety"].train.inputs
        q = 16 // 4
        assert np.all(cap_a[:, q:2 * q] == 0.0)       # facet b block silent
        assert np.all(cap_a[:, 3 * q:] == 0.0)        # safety-own block silent
        assert np.all(safety[:, :2 * q] == 0.0)       # facet blocks silent
        assert np.all(safety[:, 2 * q:] != 0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            regression_family(4, 8, 0.5, 0.1, 10, 10, seed=0)
        with pytest.raises(ConfigurationError):
            regression_family(16, 8, 0.5, -0.1, 10, 10, seed=0)
        params = dict(d=16, hidden=8, alpha=0.5, noise_sigma=0.1, n_capability=10, n_safety=10)
        for key, value in [("n_capability", 0), ("n_safety", 0), ("n_capability", -5),
                           ("n_safety", -1), ("noise_sigma", math.inf), ("noise_sigma", math.nan),
                           ("alpha", -0.1), ("alpha", 2.0)]:
            with pytest.raises(ConfigurationError, match=key):
                regression_family(**dict(params, **{key: value}), seed=0)


class TestPolicyFamily:
    def test_dpo_loss_is_log2_at_reference(self, policy_family):
        fam = policy_family()
        dpo = fam.tasks["dpo"]
        assert dpo.probe.ref_params.tobytes() == fam.theta0.tobytes()
        assert dpo.loss(fam.theta0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_stage_transition_freezes_reference(self, policy_family):
        # with a vanishing learning rate, the first dpo-stage probe must sit
        # at log 2: the reference is the stage-entry parameters, not theta0
        fam = policy_family()
        cfg = TrainConfig(method="naive", eta=1e-12, steps=4, refresh_every=5,
                          ref_count=2, safety_batch=8, ref_batch=50, seed=0,
                          stages=(Stage("sft", "nll_sft", 2),
                                  Stage("dpo", "dpo_pairwise", 2)))
        result = train(cfg, fam)
        dpo_records = [r for r in result.records if r.stage == "dpo"]
        assert dpo_records[0].safety_loss == pytest.approx(math.log(2.0), abs=1e-9)

    def test_cached_probe_follows_replaced_reference(self, policy_family):
        fam = policy_family()
        dpo = fam.tasks["dpo"]
        first = dpo.probe
        assert dpo.probe is first  # built and validated with the task
        rng = np.random.default_rng(3)
        theta1 = fam.theta0 + 0.1 * rng.standard_normal(fam.theta0.size)
        moved = _with_array(dpo, "probe", "ref_params", theta1.copy())
        assert moved.probe.ref_params.tobytes() == theta1.tobytes()
        assert moved.probe is moved.probe
        assert moved.loss(theta1) == pytest.approx(math.log(2.0), abs=1e-15)
        assert moved.probe.targets.tobytes() == first.targets.tobytes()
        # the original task, and the probe it already built, are untouched
        assert dpo.probe is first
        assert first.ref_params.tobytes() == fam.theta0.tobytes()
        assert dpo.loss(fam.theta0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_sampled_batches_carry_the_probe_reference(self, policy_family):
        fam = policy_family()
        dpo = fam.tasks["dpo"]
        batch = dpo.sample_batch(np.random.default_rng(0), 16)
        assert batch.ref_params is dpo.probe.ref_params
        assert batch.inputs.shape == (16, 8) and batch.targets.shape == (16, 2)
        moved = _with_array(dpo, "probe", "ref_params", fam.theta0 + 0.1)
        assert moved.sample_batch(np.random.default_rng(0), 16).ref_params is moved.probe.ref_params

    def test_naive_dpo_descends(self, policy_family):
        fam = policy_family()
        cfg = TrainConfig(method="naive", eta=0.2, steps=200, refresh_every=5,
                          ref_count=2, safety_batch=32, ref_batch=200, seed=0,
                          stages=(Stage("dpo", "dpo_pairwise", 200),))
        result = train(cfg, fam)
        assert result.records[-1].safety_loss < math.log(2.0)

    def test_disjoint_context_regions(self, policy_family):
        fam = policy_family()
        q = 8 // 4
        for cap_name in ("cap_a", "cap_b"):
            cap = fam.tasks[cap_name].train.inputs
            assert np.all(cap[:, 3 * q:] == 0.0)  # safety-own block silent
        for safety_name in ("sft", "dpo"):
            safe = fam.tasks[safety_name].train.inputs
            assert np.all(safe[:, :2 * q] == 0.0)  # facet blocks silent

    def test_malformed_preference_training_set_raises_when_built(self, policy_family):
        # a training set carries no reference, so Batch cannot check its
        # (rows, 2) tokens; the task does, before any stage runs
        dpo = policy_family().tasks["dpo"]
        x = dpo.train.inputs
        for tokens in (np.zeros((len(x), 3), dtype=int), np.zeros(len(x), dtype=int)):
            with pytest.raises(DimensionError, match="preference training targets"):
                dataclasses.replace(dpo, train=Batch(x, tokens))

    def test_seed_determinism(self):
        a = policy_family(8, 10, 200, 2000, seed=9)
        b = policy_family(8, 10, 200, 2000, seed=9)
        assert a.theta0.tobytes() == b.theta0.tobytes()
        assert a.tasks["dpo"].train.targets.tobytes() == b.tasks["dpo"].train.targets.tobytes()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            policy_family(8, 3, 10, 10, seed=0)
        with pytest.raises(ConfigurationError):
            policy_family(2, 10, 10, 10, seed=0)
        params = dict(context_dim=8, vocab=10, n_capability=10, n_safety=10)
        for key, value in [("n_capability", 0), ("n_safety", 0), ("n_capability", -5),
                           ("n_safety", -1)]:
            with pytest.raises(ConfigurationError, match=key):
                policy_family(**dict(params, **{key: value}), seed=0)


def _array_bytes(fam):
    out = {"theta0": fam.theta0.tobytes()}
    for name, t in fam.tasks.items():
        for label, batch, fld in tasks._ARRAYS:
            arr = getattr(getattr(t, batch), fld)
            out[f"{name}.{label}"] = None if arr is None else arr.tobytes()
    return out


class TestImmutability:
    def test_training_leaves_the_family_untouched(self, policy_family):
        fam = policy_family()
        before = _array_bytes(fam)
        result = train(DEFAULTS["policy"].train, fam)
        assert result.theta_final.tobytes() != fam.theta0.tobytes()
        assert _array_bytes(fam) == before
        assert fam.tasks["dpo"].probe.ref_params.tobytes() == fam.theta0.tobytes()

    def test_arrays_are_read_only(self, policy_family, quadratic_family):
        for fam in (policy_family(), quadratic_family(math.pi / 4)):
            with pytest.raises(ValueError):
                fam.theta0[0] = 1.0
            for task in fam.tasks.values():
                for _, batch, fld in tasks._ARRAYS:
                    arr = getattr(getattr(task, batch), fld)
                    if arr is not None:
                        with pytest.raises(ValueError):
                            arr[0] = arr[0]
                with pytest.raises(dataclasses.FrozenInstanceError):
                    task.probe = task.train
            with pytest.raises(dataclasses.FrozenInstanceError):
                fam.theta0 = fam.theta0.copy()


    def test_family_maps_are_read_only(self, regression_family):
        fam = regression_family()
        with pytest.raises(TypeError):
            fam.tasks["capability"] = fam.tasks["cap_a"]
        with pytest.raises(TypeError):
            fam.params["d"] = 3
        assert dict(fam.params) == dict(DEFAULTS["regression"].family_params,
                                        alpha=math.pi / 3, pretrain_steps=300,
                                        pretrain_eta=0.05)

    def test_pickle_and_copy_refuse(self, quadratic_family):
        # a family is rebuilt from its config; a copy made without
        # __post_init__ would hold writable arrays
        fam = quadratic_family(math.pi / 4)
        for obj in (fam, fam.tasks["safety"]):
            for copier in (pickle.dumps, copy.copy, copy.deepcopy):
                with pytest.raises(TypeError, match="rebuilt from its config"):
                    copier(obj)

    def test_family_maps_are_copies(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        tasks_in, params_in = dict(fam.tasks), dict(fam.params)
        rebuilt = dataclasses.replace(fam, tasks=tasks_in, params=params_in)
        tasks_in.clear()
        params_in["d"] = 3
        assert list(rebuilt.tasks) == ["capability", "safety"]
        assert rebuilt.params == fam.params
        assert rebuilt.fingerprint == fam.fingerprint

    def test_replaced_reference_has_its_own_probe_margins(self, policy_family):
        fam = policy_family()
        dpo = fam.tasks["dpo"]
        before = dpo.probe.ref_margin.tobytes()
        assert dpo.loss(fam.theta0) == math.log(2.0)  # policy == reference
        moved = _with_array(dpo, "probe", "ref_params", dpo.probe.ref_params + 0.1)
        assert moved.probe is not dpo.probe
        assert moved.probe.ref_margin.tobytes() != before
        assert moved.loss(fam.theta0) != math.log(2.0)
        assert dpo.probe.ref_margin.tobytes() == before
        assert dpo.loss(fam.theta0) == math.log(2.0)


class TestSampling:
    def test_batch_without_replacement_when_possible(self, regression_family):
        fam = regression_family()
        task = fam.tasks["safety"]
        batch = task.sample_batch(np.random.default_rng(0), 64)
        assert batch.inputs.shape == (64, 16)
        rows = {tuple(r) for r in batch.inputs}
        assert len(rows) == 64  # no repeats when the dataset is larger
        with pytest.raises(ConfigurationError, match="batch size must be positive, got 0"):
            task.sample_batch(np.random.default_rng(0), 0)

    def test_batch_with_replacement_when_needed(self, regression_family):
        fam = regression_family()
        task = fam.tasks["safety"]
        batch = task.sample_batch(np.random.default_rng(0), 4000)
        assert batch.inputs.shape[0] == 4000

    def test_batch_larger_than_the_set_repeats_each_row_evenly(self, regression_family):
        task = regression_family().tasks["cap_a"]
        n = len(task.train.inputs)
        batch = task.sample_batch(np.random.default_rng(3), 2 * n + 7)
        _, counts = np.unique(batch.inputs, axis=0, return_counts=True)
        assert len(counts) == n
        assert sorted(counts.tolist()) == [2] * (n - 7) + [3] * 7

    @pytest.mark.parametrize("stem, name", [("regression", "cap_a"), ("policy", "cap_b"),
                                            ("policy", "dpo")])
    def test_whole_multiples_of_the_set_give_the_full_set_gradient(
            self, regression_family, policy_family, stem, name):
        fam = regression_family() if stem == "regression" else policy_family()
        task = fam.tasks[name]
        full = Batch(task.train.inputs, task.train.targets, ref_params=task.probe.ref_params)
        theta = fam.theta0 + 0.1 * np.random.default_rng(1).standard_normal(fam.theta0.size)
        want = task.gradient(theta, full)
        n = len(full.inputs)
        for k in (1, 2, 3):
            got = task.gradient(theta, task.sample_batch(np.random.default_rng(k), k * n))
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13 * np.abs(want).max())

    def test_quadratic_batches_are_the_whole_system(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        task = fam.tasks["safety"]
        b1 = task.sample_batch(np.random.default_rng(0), 17)
        assert b1 is task.train
        assert task.train is task.probe

    def test_quadratic_system_batch_follows_replaced_arrays(self):
        cap, safety, theta0 = make_pair(6, math.pi / 4, seed=2)
        first = safety.sample_batch(np.random.default_rng(0), 1)
        assert safety.sample_batch(np.random.default_rng(1), 1) is first
        shifted = dataclasses.replace(safety, train=Batch(safety.train.inputs,
                                                          safety.train.targets + 1.0))
        second = shifted.sample_batch(np.random.default_rng(0), 1)
        assert second is shifted.train
        assert safety.sample_batch(np.random.default_rng(0), 1) is first
        with pytest.raises(NumericError):  # rejected before a task can hold it
            dataclasses.replace(safety, train=Batch(np.full_like(safety.train.inputs, np.nan),
                                                    safety.train.targets))

    def test_probe_never_in_training_draws(self, regression_family):
        fam = regression_family()
        task = fam.tasks["cap_a"]
        probe_rows = {tuple(r) for r in task.probe.inputs}
        train_rows = {tuple(r) for r in task.train.inputs}
        assert not (probe_rows & train_rows)

    @pytest.mark.parametrize("stem, name", [("regression", "safety"), ("regression", "cap_a"),
                                            ("policy", "sft"), ("policy", "dpo")])
    def test_draws_are_the_rows_of_the_checked_batch(self, regression_family, policy_family,
                                                     stem, name):
        # each draw has the bytes, dtypes and shapes of the batch the
        # constructor builds from the same rows, and consumes the generator
        # alike, across all three branches of the draw
        fam = regression_family() if stem == "regression" else policy_family()
        task = fam.tasks[name]
        moved = fam.theta0 + 0.1 * np.random.default_rng(7).standard_normal(fam.theta0.size)
        versions = [task]
        if task.probe.ref_params is not None:  # the stage-entry swap train() makes
            versions.append(dataclasses.replace(
                task, probe=dataclasses.replace(task.probe, ref_params=moved.copy())))
        n = len(task.train.inputs)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        for t in versions:
            for size in (1, 64, n, n + 1, 2 * n + 7):
                got, want = t.sample_batch(rng, size), _checked_draw(t, ref_rng, size)
                for fld in ("inputs", "targets"):
                    a, b = getattr(got, fld), getattr(want, fld)
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                assert got.ref_params is t.probe.ref_params
                assert rng.bit_generator.state == ref_rng.bit_generator.state
        if len(versions) == 2:
            assert versions[1].sample_batch(rng, 3).ref_params.tobytes() == moved.tobytes()

    @pytest.mark.parametrize("stem, name", [("regression", "safety"), ("policy", "sft"),
                                            ("policy", "dpo")])
    def test_a_draw_runs_no_batch_check(self, regression_family, policy_family, monkeypatch,
                                        stem, name):
        task = (regression_family() if stem == "regression" else policy_family()).tasks[name]
        checks = []
        real = Batch.__post_init__
        monkeypatch.setattr(Batch, "__post_init__", lambda b: checks.append(1) or real(b))
        rng = np.random.default_rng(0)
        for size in (1, 64, 2 * len(task.train.inputs) + 7):
            task.sample_batch(rng, size)
        assert checks == []
        Batch(task.train.inputs)  # the constructor still checks
        assert checks == [1]

    @pytest.mark.parametrize("stem, name", [("regression", "safety"), ("policy", "dpo")])
    def test_writing_into_a_draw_leaves_the_training_set(self, regression_family,
                                                         policy_family, stem, name):
        task = (regression_family() if stem == "regression" else policy_family()).tasks[name]
        before = (task.train.inputs.tobytes(), task.train.targets.tobytes())
        batch = task.sample_batch(np.random.default_rng(0), 2 * len(task.train.inputs) + 7)
        batch.inputs.fill(np.nan)
        batch.targets.fill(0)
        assert (task.train.inputs.tobytes(), task.train.targets.tobytes()) == before


def _checked_draw(task, rng, size):
    """The draw as the Batch constructor builds it: the same rng calls, rows
    gathered by fancy indexing, every check run."""
    data = task.train
    n = len(data.inputs)
    if size <= n:
        idx = rng.choice(n, size=size, replace=False)
    else:
        idx = np.concatenate([rng.permutation(n) for _ in range(size // n)]
                             + [rng.choice(n, size=size % n, replace=False)])
    return Batch(data.inputs[idx], data.targets[idx], ref_params=task.probe.ref_params)


def _with_task(fam, task):
    """fam with task in place of its namesake, in tasks and capability_tasks."""
    members = dict(fam.tasks, **{task.name: task})
    return dataclasses.replace(fam, tasks=members,
                               capability_tasks=tuple(members[t.name] for t in fam.capability_tasks))


def _with_array(task, batch, fld, arr):
    """task with field fld of its batch (train or probe) set to arr."""
    return dataclasses.replace(task, **{batch: dataclasses.replace(getattr(task, batch),
                                                                   **{fld: arr})})


def _nudged(arr):
    """A copy of arr with one element moved: a float by one ulp, an integer by 1."""
    out = arr.copy()
    if np.issubdtype(arr.dtype, np.integer):
        out.flat[0] += 1
    else:
        i = np.flatnonzero(arr)[0]
        out.flat[i] = np.nextafter(out.flat[i], np.inf)
    return out


class TestFingerprint:
    @pytest.mark.parametrize("label", ("theta0",) + tuple(label for label, _, _ in tasks._ARRAYS))
    def test_one_element_edit_is_a_different_family(self, policy_family, label):
        fam = policy_family()
        if label == "theta0":
            edited = [dataclasses.replace(fam, theta0=_nudged(fam.theta0))]
        else:
            _, batch, fld = next(a for a in tasks._ARRAYS if a[0] == label)
            arrays = [(t, getattr(getattr(t, batch), fld)) for t in fam.tasks.values()]
            edited = [_with_task(fam, _with_array(t, batch, fld, _nudged(arr)))
                      for t, arr in arrays if arr is not None]
        assert edited
        for other in edited:
            assert other.fingerprint != fam.fingerprint

    def test_labels_cover_every_array_a_task_holds(self, quadratic_family, regression_family,
                                                   policy_family):
        labelled = {(batch, fld) for _, batch, fld in tasks._ARRAYS}
        for fam in (quadratic_family(math.pi / 4), regression_family(), policy_family()):
            for task in fam.tasks.values():
                for batch in ("train", "probe"):
                    for fld in dataclasses.fields(Batch):
                        if getattr(getattr(task, batch), fld.name) is not None:
                            assert (batch, fld.name) in labelled, (fam.kind, task.name, fld.name)

    def test_negative_zero_is_a_different_family(self, policy_family):
        fam = policy_family()
        cap_a = fam.tasks["cap_a"]
        flipped = cap_a.train.inputs.copy()
        i = np.flatnonzero(flipped == 0.0)[0]
        flipped.flat[i] = -0.0
        assert np.array_equal(flipped, cap_a.train.inputs)
        edited = _with_task(fam, _with_array(cap_a, "train", "inputs", flipped))
        assert edited.fingerprint != fam.fingerprint

    def test_params_and_beta_are_hashed(self, policy_family):
        fam = policy_family()
        more_vocab = dataclasses.replace(fam, params=dict(fam.params, vocab=fam.params["vocab"] + 1))
        dpo = fam.tasks["dpo"]
        new_beta = _with_task(fam, dataclasses.replace(dpo, kind=LossKind("dpo_pairwise", beta=0.3)))
        digests = {fam.fingerprint, more_vocab.fingerprint, new_beta.fingerprint}
        assert len(digests) == 3

    def test_edited_family_is_a_different_family(self, regression_family):
        fam = regression_family()
        result = train(TrainConfig(method="naive", eta=0.02, steps=5, ref_count=2,
                                   safety_batch=16, ref_batch=50, seed=0,
                                   stages=(Stage("safety", "squared_error", 5),)), fam)
        assert alignment_tax(result, fam).ref_names == ("cap_a", "cap_b")
        cap_a = fam.tasks["cap_a"]
        edited = _with_task(fam, _with_array(cap_a, "probe", "inputs", _nudged(cap_a.probe.inputs)))
        assert edited.fingerprint != fam.fingerprint
        with pytest.raises(ConfigurationError, match="does not belong"):
            alignment_tax(result, edited)

    def test_capability_task_outside_tasks_is_rejected(self):
        # an edited capability task left out of tasks would escape the hash
        fam = tasks.regression_family(16, 12, 1.0, 1.0, 50, 80, seed=6)
        cap_a, cap_b = fam.capability_tasks
        edited = _with_array(cap_a, "probe", "targets", cap_a.probe.targets + 1)
        with pytest.raises(ConfigurationError, match=r"\['cap_a'\] are not members of tasks"):
            dataclasses.replace(fam, capability_tasks=(edited, cap_b))

    def test_unknown_safety_metric_task_is_rejected(self, regression_family):
        with pytest.raises(ConfigurationError, match="'cap_c' is not a task"):
            dataclasses.replace(regression_family(), safety_metric_task="cap_c")

    def test_shipped_fingerprints_at_one_and_two_blas_threads(self):
        # the thread count is fixed before numpy loads, so each needs a fresh process
        src = str(Path(tasks.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", _FINGERPRINTS_SCRIPT],
                                  capture_output=True, text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.splitlines())
        assert len(outputs[0]) == len(DEFAULTS)
        assert outputs[0] == outputs[1]


_FINGERPRINTS_SCRIPT = """
from orthoproj.config import DEFAULTS
from orthoproj.tasks import build_family
for stem, exp in sorted(DEFAULTS.items()):
    fam = build_family(exp.family_kind, exp.family_seed, **exp.family_params_dict())
    print(stem, fam.fingerprint)
"""


def _two_gradient_pretrain(theta, cap_a, cap_b, budget):
    # pre-training as two gradient calls a step, each checked: the reference
    # for _pretrain, which checks theta and the training sets once
    steps, eta = budget
    for _ in range(steps):
        g = cap_a.gradient(theta, cap_a.train)
        g += cap_b.gradient(theta, cap_b.train)
        g *= eta * 0.5
        theta -= g
    return theta


def _shipped(stem, seed=0):
    exp = DEFAULTS[stem]
    return lambda: tasks.build_family(exp.family_kind, seed, **exp.family_params_dict())


class TestPretrain:
    # 37 rows x K 40 x N 32 is a size where one gemm over both facets'
    # stacked rows would round some rows differently from a gemm per facet
    @pytest.mark.parametrize("build", [
        _shipped("regression"), _shipped("policy"),
        lambda: regression_family(40, 32, math.pi / 3, 1.0, 37, 50, seed=3),
        lambda: policy_family(40, 32, 37, 50, seed=4),
        lambda: regression_family(8, 1, 0.5, 0.0, 1, 5, seed=1),
        lambda: policy_family(4, 4, 1, 3, seed=2),
    ], ids=["regression", "policy", "regression-37x40x32", "policy-37x40x32",
            "regression-one-row", "policy-one-row"])
    def test_bytes_are_those_of_two_gradient_calls_a_step(self, monkeypatch, build):
        seen = []
        pretrain = tasks._pretrain

        def capture(theta, cap_a, cap_b, budget, label):
            theta_in = theta.copy()
            theta_out = pretrain(theta, cap_a, cap_b, budget, label)
            seen.append((theta_in, theta_out.copy(), cap_a, cap_b, budget))
            return theta_out

        monkeypatch.setattr(tasks, "_pretrain", capture)
        fam = build()
        ((theta_in, theta_out, cap_a, cap_b, budget),) = seen
        assert theta_out.tobytes() == fam.theta0.tobytes()
        want = _two_gradient_pretrain(theta_in, cap_a, cap_b, budget)
        assert theta_out.tobytes() == want.tobytes()

    def test_a_diverging_pretraining_names_itself(self, monkeypatch):
        # no step checks its gradient; the non-finite theta a divergence
        # leaves is caught after the last step
        monkeypatch.setattr(tasks, "REGRESSION_PRETRAIN", (50, 1e300))
        with np.errstate(all="ignore"), \
                pytest.raises(NumericError, match="regression pre-training diverged"):
            _shipped("regression")()


class TestBuildFamily:
    def test_config_values_are_converted_to_schema_types(self):
        fam = tasks.build_family("quadratic_pair", 3, d=12.0, alpha=1)
        assert fam.params == quadratic_family(12, 1.0, 3).params
        assert fam.theta0.tobytes() == quadratic_family(12, 1.0, 3).theta0.tobytes()

    def test_unknown_kind_and_key_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            tasks.build_family("transformer", 0)
        with pytest.raises(ConfigurationError, match="wobble"):
            tasks.build_family("quadratic_pair", 0, d=12, alpha=0.5, wobble=1)

    def test_schema_is_the_constructor_signature(self):
        assert tasks.family_schema("quadratic_pair") == {"d": int, "alpha": float}
